package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// flakyCoord NACKs the ops whose (zero-based) indexes are listed in
// fail, and forwards everything else to the real coordinator — a
// deterministic stand-in for a DP service that rejects provisioning.
type flakyCoord struct {
	inner  controlplane.DPCoordinator
	engine *sim.Engine
	fail   map[int]bool
	calls  int
}

func (f *flakyCoord) ConfigureDevice(flow int, done func(ok bool)) {
	i := f.calls
	f.calls++
	if f.fail[i] {
		f.engine.Schedule(5*sim.Microsecond, func() { done(false) })
		return
	}
	f.inner.ConfigureDevice(flow, done)
}

// laggyCoord delays the (successful) acks of the ops whose zero-based
// indexes are listed in slow, and forwards everything else — a
// deterministic stand-in for a DP service whose queue stalls and then
// resumes, so an attempt can outlive its own deadline.
type laggyCoord struct {
	inner  controlplane.DPCoordinator
	engine *sim.Engine
	slow   map[int]sim.Duration
	calls  int
}

func (l *laggyCoord) ConfigureDevice(flow int, done func(ok bool)) {
	i := l.calls
	l.calls++
	if d, lag := l.slow[i]; lag {
		l.engine.Schedule(d, func() { done(true) })
		return
	}
	l.inner.ConfigureDevice(flow, done)
}

func failAll() map[int]bool {
	all := map[int]bool{}
	for i := 0; i < 1000; i++ {
		all[i] = true
	}
	return all
}

// drainVMs runs the node in fixed chunks until every issued request is
// terminal (or the backstop trips).
func drainVMs(t *testing.T, tc *core.TaiChi, mgr *Manager, vms int) {
	t.Helper()
	for step := 0; step < 120; step++ {
		tc.Run(tc.Engine().Now().Add(500 * sim.Millisecond))
		if int(mgr.Issued) >= vms && mgr.Terminal() {
			return
		}
	}
	t.Fatalf("requests never drained: issued=%d completed=%d dead=%d",
		mgr.Issued, mgr.Completed, mgr.DeadLettered())
}

func TestRetryRecoversFromNack(t *testing.T) {
	tc := core.NewDefault(61)
	// First provisioning op NACKs; every later op (including the whole
	// retry attempt) succeeds.
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: map[int]bool{0: true}})

	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainVMs(t, tc, mgr, 1)

	if mgr.Completed != 1 {
		t.Fatalf("completed %d, want 1", mgr.Completed)
	}
	if mgr.Retried() == 0 {
		t.Fatal("NACKed attempt completed without a retry")
	}
	req := mgr.Requests()[0]
	if req.State() != ReqCompleted || req.Attempts < 2 {
		t.Fatalf("request state=%v attempts=%d, want completed after >=2 attempts", req.State(), req.Attempts)
	}
	if got := mgr.Outcomes.String(); !strings.Contains(got, "nacks=1") {
		t.Fatalf("outcomes %q missing the NACK tally", got)
	}
}

func TestDeadLetterAfterMaxAttemptsRollsBackDevices(t *testing.T) {
	tc := core.NewDefault(62)
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: failAll()})

	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainVMs(t, tc, mgr, 1)

	if mgr.DeadLettered() != 1 || mgr.Completed != 0 {
		t.Fatalf("dead=%d completed=%d, want 1/0", mgr.DeadLettered(), mgr.Completed)
	}
	req := mgr.Requests()[0]
	if req.State() != ReqDeadLettered || req.Reason != "nack" {
		t.Fatalf("request state=%v reason=%q", req.State(), req.Reason)
	}
	if req.Attempts != maxAttempts {
		t.Fatalf("attempts=%d, want the maxAttempts cap %d", req.Attempts, maxAttempts)
	}
	// Rollback: every provisioned record released, none leaked.
	if int(mgr.Devices.Aborted) != len(mgr.devices) {
		t.Fatalf("aborted %d device records, want %d", mgr.Devices.Aborted, len(mgr.devices))
	}
	if mgr.Devices.Live() != 0 {
		t.Fatalf("%d device records leaked past dead-lettering", mgr.Devices.Live())
	}
}

// TestNoLostRequestsUnderCPCrash is the lost-request regression: a CP
// crash mid-provisioning kills the device-init task outright, and
// before the request-lifecycle layer the creation simply vanished — no
// completion, no failure, no record. With deadlines and retries armed,
// every issued creation must reach completed or dead-lettered.
func TestNoLostRequestsUnderCPCrash(t *testing.T) {
	tc := core.NewDefault(63)
	inj := faults.NewInjector(faults.Spec{CPCrashRate: 0.01})
	inj.Attach(tc)

	cfg := DefaultConfig(1)
	cfg.VMs = 20
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	cfg.WrapCP = inj.WrapCP
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainVMs(t, tc, mgr, 20)

	crashes := uint64(0)
	for _, c := range inj.Counts.Counters() {
		if c.Name() == "cp-crash" {
			crashes = c.Value()
		}
	}
	if crashes == 0 {
		t.Fatal("no CP crash landed; the regression is not being exercised — raise the rate or change the seed")
	}
	if got := mgr.Completed + mgr.DeadLettered(); got != mgr.Issued {
		t.Fatalf("silently lost requests: issued=%d but only %d reached a terminal state",
			mgr.Issued, got)
	}
	for _, r := range mgr.Requests() {
		if !r.Terminal() {
			t.Fatalf("request %d stuck in %v", r.ID, r.State())
		}
	}
}

// TestTimedOutAttemptCannotCompleteTwice pins the exactly-one-terminal-
// outcome invariant: an attempt whose deadline fired (state → Retrying)
// may still finish later when the stalled DP queue resumes. Its
// completion must be ignored — otherwise both it and the
// backoff-launched retry complete the request, double-counting
// Completed/StartupTime and letting Completed exceed Issued.
func TestTimedOutAttemptCannotCompleteTwice(t *testing.T) {
	tc := core.NewDefault(67)
	// Op 0's ack stalls past the 500 ms attempt deadline, then arrives:
	// the attempt is declared failed yet resumes and runs through, and
	// its device completion lands while the retry it spawned is in
	// flight — the window where the old guard let both attempts finish.
	tc.SetCoordinator(&laggyCoord{inner: tc.Coordinator(), engine: tc.Engine(),
		slow: map[int]sim.Duration{0: 450 * sim.Millisecond}})

	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.MonitorsPerDensity = 0 // keep attempt timing free of CP contention
	cfg.Retry = DefaultRetryPolicy()
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainVMs(t, tc, mgr, 1)
	// Drain well past any straggler QEMU completion the stale attempt
	// might have scheduled.
	tc.Run(tc.Engine().Now().Add(2 * sim.Second))

	timeouts := uint64(0)
	for _, c := range mgr.Outcomes.Counters() {
		if c.Name() == "timeouts" {
			timeouts = c.Value()
		}
	}
	if timeouts == 0 {
		t.Fatal("no attempt timed out; the stale-completion race is not being exercised — adjust the lag or the deadline")
	}
	if mgr.Retried() == 0 {
		t.Fatal("timed-out attempt never retried")
	}
	if mgr.Issued != 1 || mgr.Completed != 1 {
		t.Fatalf("issued=%d completed=%d, want exactly one completion", mgr.Issued, mgr.Completed)
	}
	if got := mgr.StartupTime.Count(); got != 1 {
		t.Fatalf("startup recorded %d times, want once", got)
	}
	if req := mgr.Requests()[0]; req.State() != ReqCompleted {
		t.Fatalf("request state=%v, want completed", req.State())
	}
}

func TestRequestLifecycleDeterministic(t *testing.T) {
	run := func(seed int64) string {
		tc := core.NewDefault(seed)
		tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(),
			fail: map[int]bool{0: true, 3: true, 7: true}})
		cfg := DefaultConfig(1)
		cfg.VMs = 8
		cfg.VMLifetime = 0
		cfg.Retry = DefaultRetryPolicy()
		mgr := NewManager(tc, cfg)
		mgr.Start()
		drainVMs(t, tc, mgr, 8)
		var b strings.Builder
		b.WriteString(mgr.Outcomes.String())
		for _, r := range mgr.Requests() {
			fmt.Fprintf(&b, " %d:%v/%d", r.ID, r.State(), r.Attempts)
		}
		return b.String()
	}
	if a, b := run(64), run(64); a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a, c := run(64), run(65); a == c {
		t.Fatal("different seeds produced identical lifecycles")
	}
}

// TestRetryDisabledMatchesLegacyStreams pins the backward-compat
// contract at the stream level: a disabled-retry manager must never
// create the cluster.retry stream nor per-retry attempt streams.
func TestRetryDisabledMatchesLegacyStreams(t *testing.T) {
	tc := core.NewDefault(66)
	cfg := DefaultConfig(1)
	cfg.VMs = 3
	cfg.VMLifetime = 0
	mgr := NewManager(tc, cfg)
	if mgr.retryR != nil {
		t.Fatal("disabled retry policy still created the backoff stream")
	}
	mgr.Start()
	tc.Run(sim.Time(3 * sim.Second))
	if mgr.Completed != 3 {
		t.Fatalf("completed %d/3", mgr.Completed)
	}
	for _, r := range mgr.Requests() {
		if r.Attempts != 1 {
			t.Fatalf("request %d took %d attempts with retries disabled", r.ID, r.Attempts)
		}
	}
}

func TestRetryPolicyBackoffShape(t *testing.T) {
	if backoff(1) != baseBackoff {
		t.Fatalf("backoff(1) = %v, want base %v", backoff(1), baseBackoff)
	}
	if backoff(2) != 2*baseBackoff {
		t.Fatalf("backoff(2) = %v, want doubled base", backoff(2))
	}
}
