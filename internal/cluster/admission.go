package cluster

// Admission gate and priority-aware load shedding (ARCHITECTURE.md §6.6).
//
// With AdmissionPolicy enabled, a VM-creation request no longer goes
// straight into provisioning: it must take a token from a deterministic
// token bucket. When the bucket is dry (or a higher class is already
// waiting) the request queues per class, and two control loops run over
// the queues — a drain loop ("cluster.admit" stream) that dispatches the
// highest-priority queued request whenever tokens refill, and a
// CoDel-style shedder sweep ("cluster.shed" stream) that expires
// requests whose queue sojourn exceeded their class threshold. Shedding
// is strict-priority: batch thresholds are the tightest and
// latency-critical the widest, so under pressure batch sheds first and
// latency-critical last. The core overload ladder (OverloadLevel)
// tightens the bucket and shrinks the sojourn thresholds as the node
// walks normal→throttle→shed→brownout; in brownout, batch requests are
// rejected at the gate without queueing at all.
//
// A shed is terminal (ReqShed) but cheap: no provisioning attempt was
// consumed, no device inventory existed to roll back, and the requeue
// machinery never touches it — the client's retry accounting, not the
// node's, owns the outcome.

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Priority is a request's priority class.
type Priority uint8

// Priority classes, lowest first: shedding order is ascending, dispatch
// order descending.
const (
	// PriorityBatch is best-effort work (bulk VM pre-provisioning): first
	// to shed, last to dispatch.
	PriorityBatch Priority = iota
	// PriorityNormal is the default interactive class.
	PriorityNormal
	// PriorityLatencyCritical is customer-facing scale-up work: last to
	// shed, first to dispatch.
	PriorityLatencyCritical
)

// NumPriorities is the number of priority classes.
const NumPriorities = 3

// String names the class.
func (p Priority) String() string {
	switch p {
	case PriorityBatch:
		return "batch"
	case PriorityNormal:
		return "normal"
	case PriorityLatencyCritical:
		return "latency-critical"
	}
	return fmt.Sprintf("priority(%d)", uint8(p))
}

// DefaultClassify is the deterministic class mix the vmstartup workload
// and the overload experiments use: 50% batch, 40% normal, 10%
// latency-critical, assigned by request id so the mix is identical for
// every seed and worker count.
func DefaultClassify(id int) Priority {
	switch m := id % 10; {
	case m < 5:
		return PriorityBatch
	case m < 9:
		return PriorityNormal
	default:
		return PriorityLatencyCritical
	}
}

// AdmissionPolicy governs the admission gate. The zero value (Enabled
// false) disables the machinery entirely: no RNG streams, no queues, no
// timers — the manager is byte-identical to the pre-admission
// implementation. The queue deadlines and loop cadences are the
// package constants below; only the bucket is tunable.
type AdmissionPolicy struct {
	// Enabled arms the token bucket, the per-class queues, and the
	// shedder.
	Enabled bool
	// Rate is the token refill rate (admissions/sec) at overload level
	// normal; the bucket tightens by RateFactor as the ladder climbs.
	Rate float64
	// Burst is the bucket depth (maximum tokens banked).
	Burst float64
	// RateFactor scales the refill rate per overload level (index by
	// core.OverloadState ordinal: normal, throttle, shed, brownout).
	// Zero entries take the defaults.
	RateFactor [4]float64
	// BurstFactor scales the bucket depth per overload level: a
	// pressured member should not be able to absorb a routed burst on
	// banked tokens when its sustained rate is already clamped. The
	// default leaves the depth untouched at every rung.
	BurstFactor [4]float64
}

// Admission-gate tuning shared by every enabled gate.
const (
	// sojournThreshold is the base queue deadline: a queued request
	// whose sojourn exceeds sojournThreshold × classSojournFactor[class]
	// × levelSojournFactor[level] is shed instead of dispatched
	// (CoDel-style).
	sojournThreshold = 400 * sim.Millisecond
	// drainPeriod is the cadence of the dispatch loop while requests are
	// queued; each arming is jittered from the "cluster.admit" stream.
	drainPeriod = 10 * sim.Millisecond
	// shedPeriod is the cadence of the shedder sweep; each arming is
	// jittered from the "cluster.shed" stream.
	shedPeriod = 25 * sim.Millisecond
	// admissionJitter spreads each drain/shed arming by ±frac.
	admissionJitter = 0.2
)

// The sojourn factors are variables, not constants, so sojournLimit
// multiplies them at run time in a fixed order; a folded constant
// product could round differently.
var (
	// classSojournFactor scales the sojourn threshold per class (index
	// by Priority): batch below 1 sheds first, latency-critical above 1
	// sheds last.
	classSojournFactor = [NumPriorities]float64{0.5, 1.0, 2.0}
	// levelSojournFactor scales every sojourn threshold per overload
	// level — the shedder's reach widens (thresholds shrink) as the
	// ladder climbs.
	levelSojournFactor = [4]float64{1.0, 0.75, 0.5, 0.25}
)

// DefaultAdmissionPolicy is the tuning used by the overload experiments:
// a bucket sized for twice the default density-1 arrival rate.
func DefaultAdmissionPolicy() AdmissionPolicy {
	return AdmissionPolicy{
		Enabled:     true,
		Rate:        24,
		Burst:       8,
		RateFactor:  [4]float64{1.0, 0.7, 0.4, 0.2},
		BurstFactor: [4]float64{1.0, 1.0, 1.0, 1.0},
	}
}

// normalize fills zero fields of an enabled policy with defaults so a
// caller can set just Enabled. A negative or NaN field panics, naming
// the field.
func (p AdmissionPolicy) normalize() AdmissionPolicy {
	if !p.Enabled {
		return p
	}
	d := DefaultAdmissionPolicy()
	p.Rate = orDefault("Rate", p.Rate, d.Rate)
	p.Burst = orDefault("Burst", p.Burst, d.Burst)
	for i := range p.RateFactor {
		p.RateFactor[i] = orDefault(fmt.Sprintf("RateFactor[%d]", i), p.RateFactor[i], d.RateFactor[i])
	}
	for i := range p.BurstFactor {
		p.BurstFactor[i] = orDefault(fmt.Sprintf("BurstFactor[%d]", i), p.BurstFactor[i], d.BurstFactor[i])
	}
	return p
}

// orDefault returns v, or def when v is zero. A negative or NaN v
// panics, naming field.
func orDefault(field string, v, def float64) float64 {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("cluster: AdmissionPolicy.%s = %v; want a non-negative number", field, v))
	}
	if v == 0 {
		return def
	}
	return v
}

// overloadLevel reads the node's overload-ladder rung (0 = normal … 3 =
// brownout) through the Config hook, clamped to the factor tables.
func (m *Manager) overloadLevel() int {
	if m.cfg.OverloadLevel == nil {
		return 0
	}
	lvl := m.cfg.OverloadLevel()
	if lvl < 0 {
		lvl = 0
	}
	if lvl > 3 {
		lvl = 3
	}
	return lvl
}

// refillTokens banks tokens accrued since the last refill at the
// level-adjusted rate, capped at the level-adjusted bucket depth. The
// depth clamp applies even when no time has passed: tokens banked at a
// lower rung are not spendable once the ladder has climbed past them.
func (m *Manager) refillTokens(level int) {
	now := m.host.Engine().Now()
	dt := now.Sub(m.lastRefill)
	m.lastRefill = now
	if dt > 0 {
		rate := m.cfg.Admission.Rate * m.cfg.Admission.RateFactor[level]
		m.tokens += rate * float64(dt) / float64(sim.Second)
	}
	depth := m.cfg.Admission.Burst * m.cfg.Admission.BurstFactor[level]
	if m.tokens > depth {
		m.tokens = depth
	}
}

// sojournLimit is the effective queue deadline for one class at one
// overload level.
func (m *Manager) sojournLimit(class Priority, level int) sim.Duration {
	return sim.Duration(float64(sojournThreshold) *
		classSojournFactor[class] *
		levelSojournFactor[level])
}

// admitOrEnqueue is the gate itself: called for every freshly issued
// request when admission is enabled. Brownout rejects batch outright;
// otherwise a token admits the request immediately unless an equal or
// higher class is already waiting (strict priority also on dispatch),
// and everything else queues for the drain loop.
func (m *Manager) admitOrEnqueue(req *Request) {
	level := m.overloadLevel()
	if level >= 3 && req.Class == PriorityBatch {
		m.shed(req, "brownout")
		return
	}
	m.refillTokens(level)
	if m.tokens >= 1 && !m.queuedAtOrAbove(req.Class) {
		m.tokens--
		m.dispatch(req)
		return
	}
	req.enqueuedAt = m.host.Engine().Now()
	m.admitQ[req.Class] = append(m.admitQ[req.Class], req)
	m.queued++
	m.armDrain()
	m.armShedSweep()
}

// queuedAtOrAbove reports whether any request of class >= c is waiting —
// a newly arrived request must not overtake its own class's FIFO or any
// higher class.
func (m *Manager) queuedAtOrAbove(c Priority) bool {
	for cls := int(c); cls < NumPriorities; cls++ {
		if len(m.admitQ[cls]) > 0 {
			return true
		}
	}
	return false
}

// armDrain arms the next drain pass (idempotent while one is armed).
// The dwell is jittered from the dedicated "cluster.admit" stream so
// fleet members under the same spike do not drain in lockstep.
func (m *Manager) armDrain() {
	if m.drain.Armed() || m.queued == 0 {
		return
	}
	m.drain.Reset(sim.Jitter(m.admitR, drainPeriod, admissionJitter))
}

// drainAdmitQ dispatches queued requests highest class first while
// tokens last, shedding en route anything that already overstayed its
// class deadline (a dispatch-time sojourn check, so a stale request
// never consumes a token).
func (m *Manager) drainAdmitQ() {
	level := m.overloadLevel()
	m.refillTokens(level)
	now := m.host.Engine().Now()
	for m.tokens >= 1 {
		req := m.popHighest()
		if req == nil {
			return
		}
		if now.Sub(req.enqueuedAt) > m.sojournLimit(req.Class, level) {
			m.shed(req, "sojourn")
			continue
		}
		m.tokens--
		m.dispatch(req)
	}
}

// popHighest removes and returns the oldest request of the highest
// non-empty class (nil when all queues are empty).
func (m *Manager) popHighest() *Request {
	for cls := NumPriorities - 1; cls >= 0; cls-- {
		if q := m.admitQ[cls]; len(q) > 0 {
			req := q[0]
			m.admitQ[cls] = q[1:]
			m.queued--
			return req
		}
	}
	return nil
}

// armShedSweep arms the next shedder sweep (idempotent while one is
// armed), jittered from the dedicated "cluster.shed" stream.
func (m *Manager) armShedSweep() {
	if m.sweep.Armed() || m.queued == 0 {
		return
	}
	m.sweep.Reset(sim.Jitter(m.shedR, shedPeriod, admissionJitter))
}

// shedSweep is the CoDel-style control loop: walk the queues lowest
// class first and shed every request whose sojourn exceeded its
// class-and-level deadline. Strict priority falls out of the thresholds
// (batch's is tightest) and the walk order (batch evaluated first).
func (m *Manager) shedSweep() {
	level := m.overloadLevel()
	now := m.host.Engine().Now()
	for cls := 0; cls < NumPriorities; cls++ {
		limit := m.sojournLimit(Priority(cls), level)
		keep := m.admitQ[cls][:0]
		for _, req := range m.admitQ[cls] {
			if now.Sub(req.enqueuedAt) > limit {
				m.shed(req, "sojourn")
				m.queued--
			} else {
				keep = append(keep, req)
			}
		}
		m.admitQ[cls] = keep
	}
}

// shed is the ReqShed terminal: record the reason, count it (globally
// and per class), and emit the req_shed trace event. No device rollback
// — the request never reached provisioning — and no requeue: a shed is
// the client's problem by design. In placed mode the client is the
// cluster placer, so the shed also parks for DrainDeadLetters and the
// placer re-routes the VM to a member that is not defending itself.
func (m *Manager) shed(req *Request, reason string) {
	req.state = ReqShed
	req.Reason = reason
	m.cShed.Inc()
	m.shedByClass[req.Class]++
	m.emit(trace.KindRequestShed, req.ID, reason)
	if m.cfg.Placement.Enabled {
		m.placedDead = append(m.placedDead, req)
	}
}

// dispatch moves an admitted request into provisioning — the exact path
// a request takes at issue time when admission is disabled.
func (m *Manager) dispatch(req *Request) {
	m.provisionRecords(req)
	m.beginAttempt(req)
}

// attemptBudgetFor resolves the per-class attempt budget: the class
// override when set, else maxAttempts, and zero when retries are
// disabled (without retries no attempt is ever declared failed).
func (m *Manager) attemptBudgetFor(class Priority) int {
	if !m.cfg.Retry.Enabled {
		return 0
	}
	if b := m.cfg.Retry.ClassMaxAttempts[class]; b > 0 {
		return b
	}
	return maxAttempts
}

// Shed returns the shed request count.
func (m *Manager) Shed() uint64 { return m.cShed.Value() }

// ShedByClass returns per-class shed counts (index by Priority).
func (m *Manager) ShedByClass() [NumPriorities]uint64 { return m.shedByClass }

// QueuedAdmission returns how many requests are waiting in the
// admission queues.
func (m *Manager) QueuedAdmission() int { return m.queued }
