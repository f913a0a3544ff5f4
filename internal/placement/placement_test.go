//go:build go1.23

package placement

import (
	"math"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeMember is a scriptable Member: signals are set directly, placed
// VMs are tracked as a residency set, and dead-letters are injected via
// the dead queue. Advance is a no-op — fakes have no inner simulation.
type fakeMember struct {
	sig     Signals
	res     map[int]bool
	evicts  []int
	places  []int
	admits  []int
	dead    []int
	settled bool
}

func newFake() *fakeMember {
	return &fakeMember{res: map[int]bool{}, settled: true}
}

func (f *fakeMember) Advance(sim.Time) {}
func (f *fakeMember) Sample() Signals {
	s := f.sig
	s.Resident = len(f.res)
	return s
}
func (f *fakeMember) Place(vm int) { f.res[vm] = true; f.places = append(f.places, vm) }
func (f *fakeMember) Admit(vm int) { f.res[vm] = true; f.admits = append(f.admits, vm) }
func (f *fakeMember) Evict(vm int) { delete(f.res, vm); f.evicts = append(f.evicts, vm) }
func (f *fakeMember) DrainDead() []int {
	d := f.dead
	f.dead = nil
	return d
}
func (f *fakeMember) Settled() bool { return f.settled }

func members(fs ...*fakeMember) []Member {
	out := make([]Member, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// auditTrace runs the placement invariants over the engine's trace and
// fails the test on any violation.
func auditTrace(t *testing.T, e *Engine) *audit.Report {
	t.Helper()
	rep := audit.Run(e.Tracer().Events(), audit.Options{})
	if !rep.Ok() {
		t.Fatalf("audit violations:\n%s", rep.String())
	}
	return rep
}

func testConfig(policy Policy, vms int) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.VMs = vms
	cfg.ArrivalRate = 1000 // all arrivals due by the first scan
	cfg.MaxScans = 50
	return cfg
}

func TestPolicyChoose(t *testing.T) {
	r := sim.NewRNG(7).Stream("place.choose")
	sig := []Signals{
		{Resident: 3, Pressure: 0.9},
		{Resident: 1, Pressure: 0.2},
		{Resident: 2, Pressure: 0.1},
	}
	elig := []int{0, 1, 2}
	if got := PolicySpread.choose(sig, elig, nil, r); got != 1 {
		t.Errorf("spread chose %d, want 1 (fewest resident)", got)
	}
	if got := PolicyBinpack.choose(sig, elig, nil, r); got != 0 {
		t.Errorf("binpack chose %d, want 0 (most resident)", got)
	}
	if got := PolicyPressure.choose(sig, elig, nil, r); got != 2 {
		t.Errorf("pressure chose %d, want 2 (lowest score)", got)
	}
	// Round-robin rotates through eligible members, skipping excluded.
	rr := 0
	got := []int{}
	for i := 0; i < 4; i++ {
		got = append(got, PolicyRR.choose(sig, []int{0, 2}, &rr, r))
	}
	want := []int{0, 2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rr sequence %v, want %v", got, want)
		}
	}
	if PolicyPressure.choose(sig, nil, &rr, r) != -1 {
		t.Error("choose with no eligible members must return -1")
	}
}

func TestPlacementFollowsPressure(t *testing.T) {
	cool := newFake()
	hot := newFake()
	hot.sig.Pressure = 5.0
	e := NewEngine(1, testConfig(PolicyPressure, 8), members(hot, cool))
	st := e.Run()
	if st.Placed != 8 {
		t.Fatalf("placed %d of 8", st.Placed)
	}
	if len(hot.places) != 0 || len(cool.places) != 8 {
		t.Fatalf("pressure policy split hot=%d cool=%d, want 0/8",
			len(hot.places), len(cool.places))
	}
	auditTrace(t, e)
}

// TestAllExcludedDeadLetters is the every-member-excluded edge: the
// arrival must land in a distinct cluster-level dead-letter (reason
// "all-excluded"), and the run must terminate rather than hang waiting
// for an eligible member.
func TestAllExcludedDeadLetters(t *testing.T) {
	a, b := newFake(), newFake()
	a.sig.Overload = 3 // brownout
	b.sig.BreakerOpen = true
	e := NewEngine(1, testConfig(PolicyPressure, 3), members(a, b))
	st := e.Run()
	if st.Placed != 0 || st.AllExcluded != 3 {
		t.Fatalf("placed=%d allExcluded=%d, want 0/3", st.Placed, st.AllExcluded)
	}
	if st.Scans >= 50 {
		t.Fatalf("run hit the scan backstop (%d scans) — all-excluded must terminate, not hang", st.Scans)
	}
	dead := e.ClusterDead()
	for vm := 1; vm <= 3; vm++ {
		if dead[vm] != "all-excluded" {
			t.Errorf("vm %d reason %q, want all-excluded", vm, dead[vm])
		}
	}
	auditTrace(t, e)
}

// TestBrownoutMidMigration browns the source out after a migration
// starts: the migration must still complete (the copy is already in
// flight), residency must move exactly once, and the auditor must see no
// double-residency.
func TestBrownoutMidMigration(t *testing.T) {
	src, dst := newFake(), newFake()
	cfg := testConfig(PolicyPressure, 1)
	cfg.HotK = 1
	cfg.MigrationBudget = 1
	cfg.CopyTime = 3 * cfg.ScanEvery // completion lands several scans out
	cfg.MaxScans = 30
	e := NewEngine(1, cfg, members(src, dst))
	// Scan 1: dst scores worse, so the single arrival places on src.
	// Then the pressures flip, making src the hotspot.
	dst.sig.Pressure = 1.0
	e.step()
	if e.Resident(1) != 0 {
		t.Fatalf("setup: vm 1 on member %d, want 0", e.Resident(1))
	}
	src.sig.Pressure = 5.0
	dst.sig.Pressure = 0

	started := false
	for scan := 0; scan < cfg.MaxScans; scan++ {
		nowStats := e.stats.MigrationsStarted
		e.step()
		if !started && e.stats.MigrationsStarted > nowStats {
			started = true
			// Mid-copy brownout: the source is now excluded, but the
			// in-flight migration must not be abandoned.
			src.sig.Overload = 3
		}
		if e.stats.MigrationsDone > 0 {
			break
		}
	}
	if e.stats.MigrationsStarted != 1 || e.stats.MigrationsDone != 1 {
		t.Fatalf("migrations started=%d done=%d, want 1/1",
			e.stats.MigrationsStarted, e.stats.MigrationsDone)
	}
	if e.Resident(1) != 1 {
		t.Fatalf("vm 1 resident on %d, want 1 (the target)", e.Resident(1))
	}
	if src.res[1] || !dst.res[1] {
		t.Fatalf("double or missing residency: src=%v dst=%v", src.res[1], dst.res[1])
	}
	if len(src.evicts) != 1 {
		t.Fatalf("source evicted %d times, want exactly 1", len(src.evicts))
	}
	auditTrace(t, e)
}

// TestReplacementViaPlacer feeds a dead-lettered startup back through
// the placer: the re-place decision must go through policy choice (and
// here land on the healthier member), not pin to the old node.
func TestReplacementViaPlacer(t *testing.T) {
	old, fresh := newFake(), newFake()
	cfg := testConfig(PolicyPressure, 1)
	cfg.Rebalance = false
	e := NewEngine(1, cfg, members(old, fresh))
	// Scan 1: the old node scores better, so the arrival places there.
	// It then degrades and the startup dead-letters.
	fresh.sig.Pressure = 1.0
	e.step()
	if e.Resident(1) != 0 {
		t.Fatalf("setup: vm 1 on member %d, want 0", e.Resident(1))
	}
	old.sig.Pressure = 5.0
	fresh.sig.Pressure = 0
	old.dead = append(old.dead, 1)
	e.step()
	if e.Resident(1) != 1 {
		t.Fatalf("re-placed vm 1 on member %d, want 1 (placer choice, not old node)", e.Resident(1))
	}
	if len(old.evicts) == 0 {
		t.Fatal("old node never evicted the re-placed VM")
	}
	if e.stats.Replaced != 1 {
		t.Fatalf("Replaced=%d, want 1", e.stats.Replaced)
	}
	var sawReplaced bool
	for ev := range e.Tracer().All() {
		if ev.Kind == trace.KindVMPlace && ev.Note == "replaced" && ev.Arg == 1 {
			sawReplaced = true
		}
	}
	if !sawReplaced {
		t.Fatal(`re-placement emitted no vm_place with note "replaced"`)
	}
	auditTrace(t, e)
}

// TestExcludedMemberRejoins opens a member's breaker: it must receive
// nothing while excluded, and once the breaker closes it is an ordinary
// placement target again — exclusion is a per-scan verdict, not a
// permanent eviction from the fleet.
func TestExcludedMemberRejoins(t *testing.T) {
	sick, well := newFake(), newFake()
	sick.sig.BreakerOpen = true
	cfg := testConfig(PolicyRR, 8)
	cfg.ArrivalRate = 4 // about one arrival per scan
	cfg.Rebalance = false
	e := NewEngine(1, cfg, members(sick, well))
	for e.stats.Placed < 4 && e.scanNo < cfg.MaxScans {
		e.step()
	}
	if len(sick.places) != 0 {
		t.Fatalf("breaker-open member received placements %v", sick.places)
	}
	excludedPlaced := e.stats.Placed
	sick.sig.BreakerOpen = false
	st := e.Run()
	if st.Placed != 8 {
		t.Fatalf("placed %d of 8", st.Placed)
	}
	if len(sick.places) == 0 {
		t.Fatal("member never received placements after its breaker closed")
	}
	for _, vm := range sick.places {
		if vm <= excludedPlaced {
			t.Fatalf("vm %d placed on the member while it was excluded", vm)
		}
	}
	auditTrace(t, e)
}

func TestMigrationBudgetRespected(t *testing.T) {
	// Twelve VMs spread over six members, then four members turn hot with
	// budget 2: no scan may start more than 2 migrations.
	fakes := []*fakeMember{newFake(), newFake(), newFake(), newFake(), newFake(), newFake()}
	cfg := testConfig(PolicySpread, 12)
	cfg.HotK = 1
	cfg.MigrationBudget = 2
	cfg.MaxScans = 40
	e := NewEngine(1, cfg, members(fakes...))
	e.step() // all 12 arrivals place on the first scan
	for i := 0; i < 4; i++ {
		fakes[i].sig.Pressure = 5.0
	}
	e.Run()
	if e.stats.MigrationsStarted == 0 {
		t.Fatal("no migrations started from four hot members")
	}
	if e.stats.MaxStartsPerScan > cfg.MigrationBudget {
		t.Fatalf("a scan started %d migrations, budget %d",
			e.stats.MaxStartsPerScan, cfg.MigrationBudget)
	}
	auditTrace(t, e)
}

func TestScanNoteFormat(t *testing.T) {
	a := newFake()
	e := NewEngine(1, testConfig(PolicyRR, 1), members(a))
	e.step()
	evs := e.Tracer().Events()
	var scan *trace.Event
	for i := range evs {
		if evs[i].Kind == trace.KindRebalanceScan {
			scan = &evs[i]
			break
		}
	}
	if scan == nil {
		t.Fatal("no rebalance_scan emitted")
	}
	if !strings.HasPrefix(scan.Note, "hot=") || !strings.Contains(scan.Note, " excl=") {
		t.Fatalf("scan note %q not in \"hot=... excl=...\" form", scan.Note)
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine accepted an unknown policy")
		}
	}()
	cfg := DefaultConfig()
	cfg.Policy = "bogus"
	NewEngine(1, cfg, members(newFake()))
}

// A negative or NaN knob makes NewEngine panic naming the field, rather
// than running on the default (or, for a NaN HotBand, never finding a
// member hot); zero still takes the default.
func TestMalformedConfigPanics(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"VMs", func(c *Config) { c.VMs = -5 }},
		{"ArrivalRate", func(c *Config) { c.ArrivalRate = -1 }},
		{"ArrivalRate", func(c *Config) { c.ArrivalRate = nan }},
		{"ArrivalDelay", func(c *Config) { c.ArrivalDelay = -sim.Millisecond }},
		{"ScanEvery", func(c *Config) { c.ScanEvery = -sim.Millisecond }},
		{"HotK", func(c *Config) { c.HotK = -1 }},
		{"HotBand", func(c *Config) { c.HotBand = -0.25 }},
		{"HotBand", func(c *Config) { c.HotBand = nan }},
		{"HotAbs", func(c *Config) { c.HotAbs = -2 }},
		{"HotAbs", func(c *Config) { c.HotAbs = nan }},
		{"MigrationBudget", func(c *Config) { c.MigrationBudget = -1 }},
		{"BounceBudget", func(c *Config) { c.BounceBudget = -1 }},
		{"CooldownScans", func(c *Config) { c.CooldownScans = -1 }},
		{"CopyTime", func(c *Config) { c.CopyTime = -sim.Millisecond }},
		{"PauseTime", func(c *Config) { c.PauseTime = -sim.Millisecond }},
		{"MaxScans", func(c *Config) { c.MaxScans = -1 }},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, tc.field) {
					t.Errorf("%s: NewEngine recovered %v, want a panic naming the field", tc.field, r)
				}
			}()
			NewEngine(1, cfg, members(newFake()))
		}()
	}
	zero := Config{Workers: -1}
	e := NewEngine(1, zero, members(newFake()))
	if want := DefaultConfig(); e.cfg.VMs != want.VMs || e.cfg.ScanEvery != want.ScanEvery || e.cfg.HotBand != want.HotBand {
		t.Fatalf("zero config normalized to %+v, want the defaults", e.cfg)
	}
}
