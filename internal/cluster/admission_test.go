package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// idleHost is a Host with only an engine and streams: enough for a
// manager whose requests never leave the admission queues.
type idleHost struct {
	Host // nil: SpawnCP, Coordinator and Lock are never called
	e    *sim.Engine
	rng  *sim.RNG
}

func (h idleHost) Engine() *sim.Engine           { return h.e }
func (h idleHost) Stream(name string) *rand.Rand { return h.rng.Stream(name) }
func (h idleHost) Tracer() *trace.Tracer         { return nil }

// TestAdmissionLoopsRearmWithoutAllocating: while requests wait in the
// admission queues, the drain loop wakes every ~10 ms and the shed sweep
// every ~25 ms, and each re-arms its own timer from its callback. Once
// warm, a wake-up allocates nothing.
func TestAdmissionLoopsRearmWithoutAllocating(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig(1)
	// Half a token and a negligible refill: every request queues, and no
	// drain pass ever finds a token to dispatch one.
	cfg.Admission = AdmissionPolicy{Enabled: true, Rate: 1e-9, Burst: 0.5}
	// Latency-critical requests wait 800 ms before the sweep sheds them,
	// longer than the six 100 ms runs below.
	cfg.Classify = func(int) Priority { return PriorityLatencyCritical }
	mgr := NewManager(idleHost{e: e, rng: sim.NewRNG(1)}, cfg)
	for i := 0; i < 3; i++ {
		mgr.issueRequest()
	}
	start := e.Fired()
	allocs := testing.AllocsPerRun(5, func() { e.Run(e.Now().Add(100 * sim.Millisecond)) })
	ticks := float64(e.Fired()-start) / 6 // AllocsPerRun adds one warm-up run
	if mgr.QueuedAdmission() != 3 || ticks < 10 {
		t.Fatalf("%d queued, %.1f wake-ups per run; want 3 queued throughout and >= 10 wake-ups", mgr.QueuedAdmission(), ticks)
	}
	if allocs != 0 {
		t.Errorf("%.2f allocations per wake-up, want 0", allocs/ticks)
	}
}

// TestShedWhileBreakerOpenIsNotABreakerFailure pins the boundary
// between the admission gate and the circuit breaker: a shed happens
// before any provisioning op exists, so shedding while the breaker is
// open must not touch the breaker's ledger — no rejects, no nacks, no
// state change. Only requests that reach the coordinator may move it.
func TestShedWhileBreakerOpenIsNotABreakerFailure(t *testing.T) {
	tc := core.NewDefault(81)
	// The coordinator NACKs every op, so once the breaker trips, each
	// half-open probe fails and re-opens it.
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: failAll()})
	br := tc.InstallBreaker()

	level := 0
	cfg := DefaultConfig(1)
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	cfg.Admission = DefaultAdmissionPolicy()
	cfg.Classify = func(id int) Priority {
		if id == 1 {
			return PriorityNormal
		}
		return PriorityBatch
	}
	cfg.OverloadLevel = func() int { return level }
	mgr := NewManager(tc, cfg)

	// Trip the breaker with failing ops of its own.
	for i := 0; br.State() != controlplane.BreakerOpen; i++ {
		if i == 100 {
			t.Fatal("breaker never tripped on a failing coordinator")
		}
		br.ConfigureDevice(0, func(bool) {})
		tc.Run(tc.Engine().Now().Add(10 * sim.Microsecond))
	}
	// Request 1 by hand (no Start, no arrival schedule): each attempt
	// reaches the breaker as a half-open probe that fails and re-opens
	// it, so the retry budget burns and the request dead-letters as the
	// breaker re-opens. Step to that instant: the breaker's own timer
	// half-opens it again a few milliseconds later.
	mgr.issueRequest()
	for step := 0; !mgr.Terminal(); step++ {
		if step == 1_000_000 || !tc.Engine().Step() {
			t.Fatal("request 1 never reached a terminal state")
		}
	}
	if st := mgr.Requests()[0].State(); st != ReqDeadLettered {
		t.Fatalf("request 1 state = %v, want dead-lettered", st)
	}
	if br.State() != controlplane.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", br.State())
	}
	before := br.Counters()

	// Brownout: batch requests shed at the gate, synchronously at issue.
	level = 3
	for i := 0; i < 3; i++ {
		mgr.issueRequest()
	}
	if br.State() != controlplane.BreakerOpen {
		t.Fatalf("breaker state = %v after sheds, want still open", br.State())
	}
	if after := br.Counters(); after != before {
		t.Fatalf("breaker ledger moved on sheds: before=%+v after=%+v", before, after)
	}
	tc.Run(tc.Engine().Now().Add(500 * sim.Millisecond))

	if got := mgr.Shed(); got != 3 {
		t.Fatalf("shed = %d, want 3", got)
	}
	for _, req := range mgr.Requests()[1:] {
		if req.State() != ReqShed || req.Attempts != 0 {
			t.Fatalf("request %d state=%v attempts=%d, want shed with zero attempts",
				req.ID, req.State(), req.Attempts)
		}
	}
	// Over the rest of the window the breaker's ledger moved only by its
	// own timer, one half-open transition: no shed reached the failing
	// coordinator as a probe, which would have re-opened it.
	want := before
	want.State = controlplane.BreakerHalfOpen
	want.HalfOpens++
	if after := br.Counters(); after != want {
		t.Fatalf("breaker ledger moved on sheds: want=%+v after=%+v", want, after)
	}
}

// TestSettledWhenEveryRequestShed: a run where the gate sheds every
// single request must still settle — all-terminal, no resurrection in
// flight, empty admission queue — and audit clean with the conservation
// identity balancing on the shed column alone.
func TestSettledWhenEveryRequestShed(t *testing.T) {
	tc := core.NewDefault(82)
	cfg := DefaultConfig(1)
	cfg.VMs = 6
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	cfg.Requeue = DefaultRequeuePolicy()
	cfg.Admission = DefaultAdmissionPolicy()
	cfg.Classify = func(int) Priority { return PriorityBatch }
	cfg.OverloadLevel = func() int { return 3 } // permanent brownout
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainSettled(t, tc, mgr, 6)

	if got := mgr.Shed(); got != 6 {
		t.Fatalf("shed = %d, want all 6", got)
	}
	if mgr.Completed != 0 || mgr.DeadLettered() != 0 || mgr.Resurrected() != 0 {
		t.Fatalf("completed=%d dead=%d resurrected=%d, want 0/0/0",
			mgr.Completed, mgr.DeadLettered(), mgr.Resurrected())
	}
	if !mgr.Settled() {
		t.Fatal("manager not settled with every request shed")
	}
	if q := mgr.QueuedAdmission(); q != 0 {
		t.Fatalf("admission queue still holds %d requests", q)
	}
	if byClass := mgr.ShedByClass(); byClass[PriorityBatch] != 6 {
		t.Fatalf("shedByClass = %v, want 6 batch", byClass)
	}
	for _, req := range mgr.Requests() {
		if req.State() != ReqShed || req.Attempts != 0 {
			t.Fatalf("request %d state=%v attempts=%d, want shed with zero attempts",
				req.ID, req.State(), req.Attempts)
		}
	}

	rep := audit.Run(tc.Node.Tracer.Events(), audit.Options{})
	if !rep.Ok() {
		t.Fatalf("auditor found violations: %v", rep.Violations)
	}
	want := audit.RequestTotals{Issued: 6, Shed: 6}
	if rep.Requests != want {
		t.Fatalf("audit totals = %+v, want %+v", rep.Requests, want)
	}
}

// TestResurrectionDefersWhileMemberSheds covers a resurrection decision
// pending against a member that is riding the overload ladder: the
// health gate keeps polling (the dwell re-arms) while the member sheds,
// and the request is resurrected — never shed, since resurrection
// bypasses the admission gate — once the ladder returns to normal.
func TestResurrectionDefersWhileMemberSheds(t *testing.T) {
	tc := core.NewDefault(83)
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: firstLifeFails()})

	level := 2 // shed rung: unhealthy, but normal-class admission still flows
	polls := 0
	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	cfg.Requeue = DefaultRequeuePolicy()
	cfg.Admission = DefaultAdmissionPolicy()
	cfg.Classify = func(int) Priority { return PriorityNormal }
	cfg.OverloadLevel = func() int { return level }
	cfg.Healthy = func() bool { polls++; return level == 0 }
	mgr := NewManager(tc, cfg)
	mgr.Start()
	tc.Engine().At(sim.Time(400*sim.Millisecond), func() { level = 0 })
	drainSettled(t, tc, mgr, 1)

	req := mgr.Requests()[0]
	if mgr.Completed != 1 || req.State() != ReqCompleted {
		t.Fatalf("completed=%d state=%v, want the resurrected life to finish",
			mgr.Completed, req.State())
	}
	if mgr.Resurrected() != 1 || req.Resurrections != 1 {
		t.Fatalf("resurrected=%d req.Resurrections=%d, want 1/1", mgr.Resurrected(), req.Resurrections)
	}
	// The gate had to wait out the shedding member: the first poll (or
	// several, dwell after dwell) saw it unhealthy before the ladder
	// cleared at 400 ms.
	if polls < 2 {
		t.Fatalf("health polled %d time(s); the dwell should have re-armed while shedding", polls)
	}
	if mgr.Shed() != 0 {
		t.Fatalf("shed = %d; resurrection must bypass the admission gate", mgr.Shed())
	}
}

// TestBurstFactorClampsBankedTokens pins the per-rung bucket depth: a
// member that climbed the ladder must not spend tokens banked at a
// lower rung — the depth clamp applies immediately, not only after the
// next refill interval. A zero BurstFactor normalizes to all-1.0 and
// leaves the pre-clamp behavior untouched.
func TestBurstFactorClampsBankedTokens(t *testing.T) {
	issue := func(burstFactor [4]float64) *Manager {
		tc := core.NewDefault(84)
		cfg := DefaultConfig(1)
		cfg.VMLifetime = 0
		cfg.Retry = DefaultRetryPolicy()
		cfg.Admission = DefaultAdmissionPolicy()
		cfg.Admission.Rate = 1 // slow refill: queue depth is all clamp
		cfg.Admission.Burst = 8
		cfg.Admission.BurstFactor = burstFactor
		cfg.Classify = func(int) Priority { return PriorityNormal }
		cfg.OverloadLevel = func() int { return 1 } // throttle from the start
		mgr := NewManager(tc, cfg)
		for i := 0; i < 6; i++ {
			mgr.issueRequest()
		}
		return mgr
	}

	// Depth 8 × 0.25 = 2 at throttle: the 8 banked tokens shrink to 2
	// before the first request spends one, so 4 of the 6 queue.
	clamped := issue([4]float64{1.0, 0.25, 0.25, 0.25})
	if q := clamped.QueuedAdmission(); q != 4 {
		t.Fatalf("queued = %d with BurstFactor 0.25 at throttle, want 4", q)
	}

	// Zero value → defaults (all 1.0): the full banked burst admits
	// every request instantly, exactly as before the knob existed.
	plain := issue([4]float64{})
	if q := plain.QueuedAdmission(); q != 0 {
		t.Fatalf("queued = %d with default BurstFactor, want 0", q)
	}
}

// TestNewManagerRejectsMalformedPolicy: a negative or NaN admission
// bucket value, or a negative per-class attempt budget, panics naming
// the field instead of silently becoming the default (a NaN rate would
// otherwise poison the token count and the gate would never admit).
// Zero keeps meaning "default".
func TestNewManagerRejectsMalformedPolicy(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Rate", func(c *Config) { c.Admission.Rate = -5 }},
		{"Rate", func(c *Config) { c.Admission.Rate = nan }},
		{"Burst", func(c *Config) { c.Admission.Burst = -1 }},
		{"Burst", func(c *Config) { c.Admission.Burst = nan }},
		{"RateFactor[2]", func(c *Config) { c.Admission.RateFactor[2] = -0.4 }},
		{"RateFactor[0]", func(c *Config) { c.Admission.RateFactor[0] = nan }},
		{"BurstFactor[3]", func(c *Config) { c.Admission.BurstFactor[3] = -1 }},
		{"BurstFactor[1]", func(c *Config) { c.Admission.BurstFactor[1] = nan }},
		{"ClassMaxAttempts[0]", func(c *Config) { c.Retry.ClassMaxAttempts[0] = -1 }},
	} {
		cfg := DefaultConfig(1)
		cfg.Retry = DefaultRetryPolicy()
		cfg.Admission = DefaultAdmissionPolicy()
		tc.set(&cfg)
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			NewManager(core.NewDefault(85), cfg)
			return ""
		}()
		if !strings.Contains(msg, tc.field) {
			t.Errorf("%s: NewManager panic %q, want one naming the field", tc.field, msg)
		}
	}

	// Zero still means the default.
	cfg := DefaultConfig(1)
	cfg.Retry = RetryPolicy{Enabled: true}
	cfg.Admission = AdmissionPolicy{Enabled: true}
	m := NewManager(core.NewDefault(85), cfg)
	if got, want := m.cfg.Admission, DefaultAdmissionPolicy(); got != want {
		t.Fatalf("zero admission fields normalized to %+v, want %+v", got, want)
	}
	if got := m.attemptBudgetFor(PriorityBatch); got != maxAttempts {
		t.Fatalf("zero ClassMaxAttempts entry gave budget %d, want %d", got, maxAttempts)
	}
}
