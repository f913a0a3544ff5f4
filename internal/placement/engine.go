package placement

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes the cluster placer.
type Config struct {
	// Policy selects the placement scoring rule.
	Policy Policy
	// VMs is how many cluster-level VM arrivals to place.
	VMs int
	// ArrivalRate is cluster VM arrivals per second (Poisson, drawn from
	// the "place.arrive" stream up front so the schedule is independent
	// of worker count).
	ArrivalRate float64
	// ArrivalDelay shifts the whole arrival schedule: the fleet runs
	// (and its pressure EWMAs settle) for this long before the first VM
	// arrives, so even the first placement decision sees real signals
	// rather than every member at its zero-value start.
	ArrivalDelay sim.Duration
	// ScanEvery is the barrier period: arrivals are admitted and the
	// rebalance loop runs once per scan.
	ScanEvery sim.Duration
	// Rebalance arms the hotspot-migration loop.
	Rebalance bool
	// HotK is how many consecutive scans a member must score beyond the
	// hysteresis band before it counts as hot (thrash damping).
	HotK int
	// HotBand is the hysteresis band: hot when score > fleet mean ×
	// (1 + HotBand).
	HotBand float64
	// HotAbs, when positive, replaces the relative band with an absolute
	// score threshold: hot when score > HotAbs. A relative band is the
	// right default for homogeneous fleets, but under a static skew the
	// outliers sit beyond any mean-relative band forever; an absolute
	// level set above the skew's baseline makes hotness — and therefore
	// dwell — measure what placement added, not what the fleet started
	// with.
	HotAbs float64
	// MigrationBudget caps migration starts per scan window.
	MigrationBudget int
	// BounceBudget caps how many times one VM's startup may dead-letter
	// and be re-placed before the cluster gives up on it ("bounce-budget"
	// terminal). Without the cap a policy that keeps choosing the same
	// degraded member re-places the same VM forever.
	BounceBudget int
	// CooldownScans is how many scans a just-migrated VM is ineligible
	// to migrate again.
	CooldownScans int
	// CopyTime and PauseTime model one migration: the VM keeps running
	// on the source for CopyTime (live copy), then pauses PauseTime for
	// the final switchover. Residency moves at copy+pause completion.
	CopyTime  sim.Duration
	PauseTime sim.Duration
	// MaxScans is the runaway backstop on the drain loop.
	MaxScans int
	// Workers bounds the parallel member-advance pool (<= 0 selects
	// fleet.DefaultWorkers). Output is identical for every value.
	Workers int
}

// DefaultConfig returns the experiment-scale defaults: scans every 250ms
// against a ~12 VM/s cluster arrival rate, two consecutive hot scans to
// trigger migration, and a 2-migrations-per-scan budget.
func DefaultConfig() Config {
	return Config{
		Policy:          PolicyPressure,
		VMs:             64,
		ArrivalRate:     12,
		ScanEvery:       250 * sim.Millisecond,
		Rebalance:       true,
		HotK:            2,
		HotBand:         0.25,
		MigrationBudget: 2,
		BounceBudget:    3,
		CooldownScans:   4,
		CopyTime:        120 * sim.Millisecond,
		PauseTime:       8 * sim.Millisecond,
		MaxScans:        400,
	}
}

// Validate rejects a negative or NaN knob, naming it. Zero means the
// default (no absolute threshold, for HotAbs).
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"VMs", float64(c.VMs)},
		{"ArrivalRate", c.ArrivalRate},
		{"ArrivalDelay", float64(c.ArrivalDelay)},
		{"ScanEvery", float64(c.ScanEvery)},
		{"HotK", float64(c.HotK)},
		{"HotBand", c.HotBand},
		{"HotAbs", c.HotAbs},
		{"MigrationBudget", float64(c.MigrationBudget)},
		{"BounceBudget", float64(c.BounceBudget)},
		{"CooldownScans", float64(c.CooldownScans)},
		{"CopyTime", float64(c.CopyTime)},
		{"PauseTime", float64(c.PauseTime)},
		{"MaxScans", float64(c.MaxScans)},
	} {
		if f.v < 0 || math.IsNaN(f.v) {
			return fmt.Errorf("placement: %s = %v: negative or NaN", f.name, f.v)
		}
	}
	return nil
}

// normalize fills unset knobs from the defaults.
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Policy == "" {
		c.Policy = d.Policy
	}
	if c.VMs == 0 {
		c.VMs = d.VMs
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = d.ArrivalRate
	}
	if c.ScanEvery == 0 {
		c.ScanEvery = d.ScanEvery
	}
	if c.HotK == 0 {
		c.HotK = d.HotK
	}
	if c.HotBand == 0 {
		c.HotBand = d.HotBand
	}
	if c.MigrationBudget == 0 {
		c.MigrationBudget = d.MigrationBudget
	}
	if c.BounceBudget == 0 {
		c.BounceBudget = d.BounceBudget
	}
	if c.CooldownScans == 0 {
		c.CooldownScans = d.CooldownScans
	}
	if c.CopyTime == 0 {
		c.CopyTime = d.CopyTime
	}
	if c.PauseTime == 0 {
		c.PauseTime = d.PauseTime
	}
	if c.MaxScans == 0 {
		c.MaxScans = d.MaxScans
	}
	return c
}

// Stats is the engine's run summary.
type Stats struct {
	// Placed counts first placements; Replaced counts re-placements of
	// dead-lettered startups through the placer.
	Placed, Replaced int
	// AllExcluded counts placement decisions that found every member
	// excluded — the cluster-level dead-letter, reason "all-excluded".
	AllExcluded int
	// BounceDead counts startups abandoned after BounceBudget
	// re-placements — the cluster-level dead-letter, reason
	// "bounce-budget".
	BounceDead int
	// MigrationsStarted / MigrationsDone count live migrations; at most
	// MigrationBudget start per scan.
	MigrationsStarted, MigrationsDone int
	// MaxStartsPerScan is the observed per-scan migration-start maximum
	// (must never exceed the budget).
	MaxStartsPerScan int
	// HotScans is hotspot dwell: the number of (member, scan) pairs a
	// member spent beyond the hysteresis band. Multiply by ScanEvery for
	// dwell time.
	HotScans int
	// Scans is how many barrier scans ran.
	Scans int
	// PauseTotal is the summed modeled switchover pause across
	// completed migrations.
	PauseTotal sim.Duration
}

// migration is one in-flight live migration.
type migration struct {
	vm, src, dst int
	doneAt       sim.Time
}

// Engine drives a fleet of Members through lockstep placement epochs.
type Engine struct {
	cfg     Config
	members []Member
	tracer  *trace.Tracer

	arriveR, chooseR, pickR *rand.Rand
	arrivals                []sim.Time // arrival instant of VM id i+1
	nextArrival             int
	rrNext                  int

	now          sim.Time
	scanNo       int
	resident     map[int]int // cluster VM id → member index
	inflight     []migration // sorted by (doneAt, vm) at completion time
	pendingDead  []int       // VM ids awaiting re-placement
	clusterDead  map[int]string
	bounces      map[int]int // VM id → dead-letter re-placements so far
	lastMigrated map[int]int // VM id → scan of last migration start
	streak       []int       // per-member consecutive hot-scan count

	stats Stats
}

// NewEngine builds a placer over the members. The seed feeds the
// engine's own cluster-level streams; member simulations keep their own
// per-member seeds. The engine records its decisions into a private
// tracer (members never see cluster-level kinds), sized unlimited so
// audits are never truncated. It panics, naming the field, on a config
// Validate rejects.
func NewEngine(seed int64, cfg Config, members []Member) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.normalize()
	if !cfg.Policy.Valid() {
		panic(fmt.Sprintf("placement: unknown policy %q", cfg.Policy))
	}
	if len(members) == 0 {
		panic("placement: need at least one member")
	}
	rng := sim.NewRNG(seed)
	e := &Engine{
		cfg:          cfg,
		members:      members,
		tracer:       trace.New(0),
		arriveR:      rng.Stream("place.arrive"),
		chooseR:      rng.Stream("place.choose"),
		pickR:        rng.Stream("migrate.pick"),
		resident:     map[int]int{},
		clusterDead:  map[int]string{},
		bounces:      map[int]int{},
		lastMigrated: map[int]int{},
		streak:       make([]int, len(members)),
	}
	// The arrival schedule is drawn up front: the stream order is then a
	// pure function of the seed, untouched by how many scans or workers
	// the run uses.
	gap := sim.Duration(float64(sim.Second) / cfg.ArrivalRate)
	at := sim.Time(0).Add(cfg.ArrivalDelay)
	for i := 0; i < cfg.VMs; i++ {
		at = at.Add(sim.Exponential(e.arriveR, gap))
		e.arrivals = append(e.arrivals, at)
	}
	return e
}

// Tracer exposes the engine's cluster-level trace (vm_place,
// vm_migrate_start/done, rebalance_scan) for export and audit.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Stats returns the run summary (valid after Run).
func (e *Engine) Stats() Stats { return e.stats }

// ClusterDead returns the VM ids dead-lettered at cluster level (every
// member excluded at decision time) with their reason — the distinct
// terminal the all-excluded edge case lands in instead of hanging.
func (e *Engine) ClusterDead() map[int]string { return e.clusterDead }

// Arrival returns the cluster-level arrival instant of the VM (its
// startup request may be submitted later, at the next barrier, and
// possibly re-submitted elsewhere after a dead-letter — the arrival
// instant is the fixed origin for end-to-end startup latency).
func (e *Engine) Arrival(vm int) sim.Time {
	if vm < 1 || vm > len(e.arrivals) {
		return 0
	}
	return e.arrivals[vm-1]
}

// Resident returns the member currently hosting the VM (-1 if none).
func (e *Engine) Resident(vm int) int {
	if m, ok := e.resident[vm]; ok {
		return m
	}
	return -1
}

// Run executes barrier scans until every arrival is placed and settled,
// re-placements and migrations have drained, or MaxScans elapses.
// Returns the run summary.
func (e *Engine) Run() Stats {
	for e.scanNo < e.cfg.MaxScans {
		e.step()
		if e.drained() {
			break
		}
	}
	return e.stats
}

// step runs one barrier scan. Tests drive it directly to interleave
// member-state changes (brownouts, dead-letters) between scans.
func (e *Engine) step() {
	e.now = e.now.Add(e.cfg.ScanEvery)
	scan := e.scanNo
	e.scanNo++
	e.stats.Scans++

	// Parallel phase: every member advances to the barrier on the
	// bounded pool. Members share no state, and all engine mutation
	// happens below, single-threaded — so worker count cannot leak
	// into the result.
	fleet.ForEach(len(e.members), e.cfg.Workers, func(i int) {
		e.members[i].Advance(e.now)
	})

	e.completeMigrations(e.now)
	e.drainDeadLetters()

	// Sample every member once per scan; all decisions below read
	// this snapshot, so a placement cannot see fresher state than the
	// scan event records.
	sig := make([]Signals, len(e.members))
	for i, m := range e.members {
		sig[i] = m.Sample()
	}
	hot, excl := e.classify(sig)
	e.emitScan(e.now, scan, hot, excl)

	e.replaceDead(e.now, sig)
	e.placeArrivals(e.now, sig)
	if e.cfg.Rebalance {
		e.startMigrations(e.now, scan, sig, hot)
	}
}

// completeMigrations finishes every migration due by the barrier, in
// (doneAt, vm) order so the trace stays chronological. Residency moves
// only now — the VM ran on the source through the whole copy (live
// migration), so no instant has it on two members or none.
func (e *Engine) completeMigrations(now sim.Time) {
	var due []migration
	rest := e.inflight[:0]
	for _, m := range e.inflight {
		if m.doneAt <= now {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	e.inflight = rest
	sort.Slice(due, func(i, j int) bool {
		if due[i].doneAt != due[j].doneAt {
			return due[i].doneAt < due[j].doneAt
		}
		return due[i].vm < due[j].vm
	})
	for _, m := range due {
		e.members[m.src].Evict(m.vm)
		e.members[m.dst].Admit(m.vm)
		e.resident[m.vm] = m.dst
		e.stats.MigrationsDone++
		e.stats.PauseTotal += e.cfg.PauseTime
		e.tracer.Emit(m.doneAt, trace.KindVMMigrateDone, m.dst, int64(m.vm),
			fmt.Sprintf("from=%d", m.src))
	}
}

// drainDeadLetters collects startup dead-letters from every member in
// index order and queues them for re-placement through the placer — the
// resurrection path in placed mode never pins to the old node.
func (e *Engine) drainDeadLetters() {
	for _, m := range e.members {
		e.pendingDead = append(e.pendingDead, m.DrainDead()...)
	}
}

// classify computes the hot and excluded sets for this scan. Hotness is
// hysteretic: a member must score beyond the band for HotK consecutive
// scans, so one noisy sample cannot trigger a migration storm. Exclusion
// and hotness are independent: exclusion bars a member as a target
// (placement or migration destination), while a hot excluded member —
// say, browned out under stacked guests — is exactly what the rebalance
// loop most needs to evacuate, so it stays a legal migration source.
func (e *Engine) classify(sig []Signals) (hot, excl []int) {
	var sum float64
	for _, s := range sig {
		sum += s.Score()
	}
	mean := sum / float64(len(sig))
	threshold := mean * (1 + e.cfg.HotBand)
	if e.cfg.HotAbs > 0 {
		threshold = e.cfg.HotAbs
	}
	for i, s := range sig {
		if s.Excluded() {
			excl = append(excl, i)
		}
		if s.Score() > threshold {
			e.streak[i]++
			e.stats.HotScans++
			if e.streak[i] >= e.cfg.HotK {
				hot = append(hot, i)
			}
		} else {
			e.streak[i] = 0
		}
	}
	return hot, excl
}

// emitScan records the scan's decision inputs: the auditor replays the
// excluded set from this note to certify no later placement targeted an
// excluded member.
func (e *Engine) emitScan(now sim.Time, scan int, hot, excl []int) {
	e.tracer.Emit(now, trace.KindRebalanceScan, -1, int64(scan),
		fmt.Sprintf("hot=%s excl=%s", memberList(hot), memberList(excl)))
}

// memberList renders indices as "1,4" ("-" for empty), the strict format
// audit.parseExclusions expects.
func memberList(idx []int) string {
	if len(idx) == 0 {
		return "-"
	}
	parts := make([]string, len(idx))
	for i, m := range idx {
		parts[i] = fmt.Sprintf("%d", m)
	}
	return strings.Join(parts, ",")
}

// eligible returns the non-excluded member indices, ascending.
func eligible(sig []Signals) []int {
	var out []int
	for i, s := range sig {
		if !s.Excluded() {
			out = append(out, i)
		}
	}
	return out
}

// replaceDead re-places startups that dead-lettered on their node. VMs
// with a migration still in flight wait for it to complete first (their
// residency is about to move); the rest are re-placed like fresh
// arrivals, except the trace note marks the residency handoff and the
// old member stops hosting the VM's load.
func (e *Engine) replaceDead(now sim.Time, sig []Signals) {
	if len(e.pendingDead) == 0 {
		return
	}
	elig := eligible(sig)
	var deferred []int
	for _, vm := range e.pendingDead {
		if e.migrating(vm) {
			deferred = append(deferred, vm)
			continue
		}
		if old, ok := e.resident[vm]; ok {
			e.members[old].Evict(vm)
			sig[old].Resident--
		}
		e.bounces[vm]++
		if e.bounces[vm] > e.cfg.BounceBudget {
			delete(e.resident, vm)
			e.clusterDead[vm] = "bounce-budget"
			e.stats.BounceDead++
			e.tracer.Emit(now, trace.KindVMPlace, -1, int64(vm), "bounce-budget")
			continue
		}
		target := e.cfg.Policy.choose(sig, elig, &e.rrNext, e.chooseR)
		if target < 0 {
			delete(e.resident, vm)
			e.clusterDead[vm] = "all-excluded"
			e.stats.AllExcluded++
			e.tracer.Emit(now, trace.KindVMPlace, -1, int64(vm), "all-excluded")
			continue
		}
		e.members[target].Place(vm)
		e.resident[vm] = target
		sig[target].Resident++
		e.stats.Replaced++
		e.tracer.Emit(now, trace.KindVMPlace, target, int64(vm), "replaced")
	}
	e.pendingDead = deferred
}

// placeArrivals admits every cluster arrival due by the barrier.
func (e *Engine) placeArrivals(now sim.Time, sig []Signals) {
	elig := eligible(sig)
	for e.nextArrival < len(e.arrivals) && e.arrivals[e.nextArrival] <= now {
		vm := e.nextArrival + 1
		e.nextArrival++
		target := e.cfg.Policy.choose(sig, elig, &e.rrNext, e.chooseR)
		if target < 0 {
			e.clusterDead[vm] = "all-excluded"
			e.stats.AllExcluded++
			e.tracer.Emit(now, trace.KindVMPlace, -1, int64(vm), "all-excluded")
			continue
		}
		e.members[target].Place(vm)
		e.resident[vm] = target
		// Count the placement against the member for the rest of this
		// barrier: the fleet's signals are sampled once per scan, and
		// without the bump every same-scan arrival would pile onto the
		// single best-scoring member.
		sig[target].Resident++
		e.stats.Placed++
		e.tracer.Emit(now, trace.KindVMPlace, target, int64(vm), "")
	}
}

// startMigrations moves VMs off hot members: per scan, up to
// MigrationBudget victims leave, each picked uniformly from its hot
// member's eligible residents ("migrate.pick") and routed by the same
// scoring policy to a non-hot, non-excluded target. A just-migrated VM
// is in cooldown for CooldownScans so the cluster cannot thrash one VM
// back and forth.
func (e *Engine) startMigrations(now sim.Time, scan int, sig []Signals, hot []int) {
	if len(hot) == 0 {
		return
	}
	hotSet := map[int]bool{}
	for _, h := range hot {
		hotSet[h] = true
	}
	var targets []int
	for i, s := range sig {
		if !s.Excluded() && !hotSet[i] {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return
	}
	starts := 0
	for _, src := range hot {
		if starts >= e.cfg.MigrationBudget {
			break
		}
		victims := e.victimsOn(src, scan)
		if len(victims) == 0 {
			continue
		}
		vm := victims[e.pickR.Intn(len(victims))]
		dst := e.cfg.Policy.choose(sig, targets, &e.rrNext, e.chooseR)
		if dst < 0 {
			continue
		}
		e.inflight = append(e.inflight, migration{
			vm: vm, src: src, dst: dst,
			doneAt: now.Add(e.cfg.CopyTime + e.cfg.PauseTime),
		})
		// Charge the in-flight VM to its destination for this barrier's
		// remaining target choices so one cool member doesn't absorb the
		// whole scan's migrations.
		sig[dst].Resident++
		sig[src].Resident--
		e.lastMigrated[vm] = scan
		starts++
		e.stats.MigrationsStarted++
		e.tracer.Emit(now, trace.KindVMMigrateStart, src, int64(vm),
			fmt.Sprintf("to=%d", dst))
	}
	if starts > e.stats.MaxStartsPerScan {
		e.stats.MaxStartsPerScan = starts
	}
}

// victimsOn returns member src's resident VMs eligible to migrate this
// scan: not already migrating and out of cooldown. Ascending VM-id order
// keeps the pick stream's meaning stable.
func (e *Engine) victimsOn(src, scan int) []int {
	var out []int
	for vm := 1; vm <= len(e.arrivals); vm++ {
		if m, ok := e.resident[vm]; !ok || m != src {
			continue
		}
		if e.migrating(vm) {
			continue
		}
		if last, ok := e.lastMigrated[vm]; ok && scan-last < e.cfg.CooldownScans {
			continue
		}
		out = append(out, vm)
	}
	return out
}

// migrating reports whether the VM has a migration in flight.
func (e *Engine) migrating(vm int) bool {
	for _, m := range e.inflight {
		if m.vm == vm {
			return true
		}
	}
	return false
}

// drained is the stop condition: arrivals exhausted, no re-placement or
// migration pending, and every member's request lifecycle settled.
// Cluster-level dead letters are terminal and do not hold the run open.
func (e *Engine) drained() bool {
	if e.nextArrival < len(e.arrivals) || len(e.pendingDead) > 0 || len(e.inflight) > 0 {
		return false
	}
	for _, m := range e.members {
		if !m.Settled() {
			return false
		}
	}
	return true
}
