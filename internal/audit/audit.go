// Package audit is the runtime invariant auditor: it replays a node's
// flat trace stream after a run and checks the conservation invariants
// the scheduler, the defense/recovery/overload ladders, and the request
// lifecycle promise — no vCPU double-lend, every lend paired with a
// reclaim, request conservation across retries, resurrections and
// admission-gate sheds (issued = completed + dead-lettered + shed +
// pending), mode and overload transitions forming legal lattice paths,
// and circuit-breaker state machine legality. Violations come back structured so tests,
// `taichi-sim -audit`, and the chaos experiment can fail loudly on them.
//
// The auditor is a pure function of the recorded events (plus an
// optional breaker-counter snapshot): it draws no randomness, schedules
// nothing, and can therefore run on any node — or any worker's replica
// of a node — without perturbing determinism.
//
// Audits assume an untruncated trace (a platform node's tracer keeps
// every event it records): a tracer that dropped events cannot be
// checked for pairing, and Run reports that as a violation rather than
// guessing.
package audit

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Violation is one invariant breach, anchored to the event that exposed
// it.
type Violation struct {
	// Code identifies the invariant: "double-lend", "vcpu-two-cores",
	// "unmatched-vm-exit", "unmatched-reclaim", "request-order",
	// "request-conservation", "mode-lattice", "overload-lattice",
	// "breaker-legality", "truncated-trace", "placement-residency",
	// "placement-excluded", "placement-scan", "migration-order",
	// "migration-conservation".
	Code string
	// At is the simulated instant of the offending event (0 for
	// end-of-run conservation checks).
	At sim.Time
	// CPU / Arg echo the offending event's coordinates (-1 / 0 for
	// end-of-run checks).
	CPU int
	Arg int64
	// Msg is the human-readable statement of the breach.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%v cpu=%d arg=%d: %s", v.Code, v.At, v.CPU, v.Arg, v.Msg)
}

// Report is the outcome of one audit pass.
type Report struct {
	// Events is how many trace events the auditor consumed.
	Events int
	// Requests carries the replayer's request-lifecycle tallies, exposed
	// so report pipelines can be cross-checked against the trace instead
	// of trusting their own counters.
	Requests RequestTotals
	// Violations lists every breach in event order (conservation checks
	// last). Empty means the run upheld every invariant.
	Violations []Violation
}

// RequestTotals is the replayer's view of request conservation, counted
// from trace events alone. Dead counts dead-letter *events* (a request
// resurrected and dead-lettered again counts twice); the net number of
// requests resting in the dead-letter queue is Dead − Resurrected, which
// is the figure the conservation identity uses:
//
//	Issued = Completed + (Dead − Resurrected) + Shed + Pending
type RequestTotals struct {
	Issued, Completed, Dead, Resurrected, Shed, Pending int
}

// Ok reports a clean audit.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String renders the report deterministically: one summary line, then
// one line per violation.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: events=%d violations=%d\n", r.Events, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v.String())
	}
	return b.String()
}

// Options carries audit inputs that do not live in the trace stream.
type Options struct {
	// Breaker, when non-nil, is the node's circuit-breaker counter
	// snapshot; the breaker state machine is then checked for legality.
	Breaker *controlplane.BreakerCounters
	// DroppedEvents is the tracer's dropped-event count; non-zero makes
	// pairing unverifiable and is itself reported as a violation.
	DroppedEvents uint64
}

// reqPhase is the auditor's request state machine mirror.
type reqPhase uint8

const (
	reqUnknown reqPhase = iota
	reqPending
	reqProvisioning
	reqRetrying
	reqCompleted
	reqDead
	reqResurrected
	reqShed
)

func (p reqPhase) String() string {
	switch p {
	case reqPending:
		return "pending"
	case reqProvisioning:
		return "provisioning"
	case reqRetrying:
		return "retrying"
	case reqCompleted:
		return "completed"
	case reqDead:
		return "dead-lettered"
	case reqResurrected:
		return "resurrected"
	case reqShed:
		return "shed"
	}
	return "unknown"
}

// Run audits one node's event stream. Events must be in emission order
// (exactly what trace.Tracer.Events returns).
func Run(events []trace.Event, opts Options) *Report {
	rep := &Report{Events: len(events)}
	add := func(e trace.Event, code, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Code: code, At: e.At, CPU: e.CPU, Arg: e.Arg,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	addEnd := func(code, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Code: code, CPU: -1, Msg: fmt.Sprintf(format, args...),
		})
	}

	if opts.DroppedEvents > 0 {
		addEnd("truncated-trace", "tracer dropped %d events; pairing invariants unverifiable", opts.DroppedEvents)
		return rep
	}

	// Residency: which vCPU occupies which core, from vm_entry/vm_exit.
	coreOccupant := map[int]int64{} // core id → vCPU logical id
	vcpuCore := map[int64]int{}     // vCPU logical id → core id
	// Lend/reclaim: idle-detected (yield) open per core; a dp-resume
	// (preempt) without one would mean the DP resumed a core it never
	// yielded.
	yieldOpen := map[int]bool{}
	// Request lifecycle mirror + event tallies for conservation.
	reqState := map[int64]reqPhase{}
	var reqOrder []int64
	var issuedEv, completedEv, deadEv, resurrectedEv, shedEv int
	// Mode lattice: the scheduler-wide degradation position.
	mode := "normal"
	// Overload lattice: the brownout-ladder rung (OverloadState ordinal,
	// carried as the overload_enter/exit Arg); transitions must move
	// exactly one rung — up on enter, down on exit.
	ovl := int64(0)
	// Cluster-placement mirror (vm_place / vm_migrate_* / rebalance_scan,
	// the placement engine's cluster-level trace): which member each VM
	// is resident on, the in-flight migrations, and the exclusion set the
	// latest rebalance scan declared at decision time.
	vmNode := map[int64]int{} // VM id → resident member index
	type migration struct{ src, dst int }
	migOpen := map[int64]migration{} // VM id → in-flight migration
	excluded := map[int]bool{}
	sawScan := false
	migStarts, migDones := 0, 0

	for _, e := range events {
		switch e.Kind {
		case trace.KindVMEntry:
			if prev, busy := coreOccupant[e.CPU]; busy {
				add(e, "double-lend", "vm_entry of vCPU %d on core %d already occupied by vCPU %d", e.Arg, e.CPU, prev)
			}
			if prevCore, hosted := vcpuCore[e.Arg]; hosted {
				add(e, "vcpu-two-cores", "vm_entry of vCPU %d on core %d while still resident on core %d", e.Arg, e.CPU, prevCore)
			}
			coreOccupant[e.CPU] = e.Arg
			vcpuCore[e.Arg] = e.CPU
		case trace.KindVMExit:
			if occ, busy := coreOccupant[e.CPU]; !busy || occ != e.Arg {
				have := "no occupant"
				if busy {
					have = fmt.Sprintf("occupant vCPU %d", occ)
				}
				add(e, "unmatched-vm-exit", "vm_exit of vCPU %d on core %d with %s", e.Arg, e.CPU, have)
			} else {
				delete(coreOccupant, e.CPU)
				delete(vcpuCore, e.Arg)
			}
		case trace.KindYield:
			// Idle detection may legally repeat without an intervening
			// resume (re-armed idle watch on a core that was never lent).
			yieldOpen[e.CPU] = true
		case trace.KindPreempt:
			if !yieldOpen[e.CPU] {
				add(e, "unmatched-reclaim", "dp-resume on core %d without a preceding idle-detect/yield", e.CPU)
			}
			yieldOpen[e.CPU] = false

		case trace.KindRequestIssued:
			issuedEv++
			if st, seen := reqState[e.Arg]; seen {
				add(e, "request-order", "request %d re-issued while %s", e.Arg, st)
			} else {
				reqOrder = append(reqOrder, e.Arg)
			}
			reqState[e.Arg] = reqPending
		case trace.KindRequestAttempt:
			switch reqState[e.Arg] {
			case reqPending, reqRetrying, reqResurrected:
				reqState[e.Arg] = reqProvisioning
			default:
				add(e, "request-order", "attempt on request %d in state %s", e.Arg, reqState[e.Arg])
			}
		case trace.KindRequestRetry:
			if reqState[e.Arg] != reqProvisioning {
				add(e, "request-order", "retry on request %d in state %s", e.Arg, reqState[e.Arg])
			} else {
				reqState[e.Arg] = reqRetrying
			}
		case trace.KindRequestCompleted:
			completedEv++
			if reqState[e.Arg] != reqProvisioning {
				add(e, "request-order", "completion of request %d in state %s", e.Arg, reqState[e.Arg])
			}
			reqState[e.Arg] = reqCompleted
		case trace.KindRequestDeadLetter:
			deadEv++
			if reqState[e.Arg] != reqProvisioning {
				add(e, "request-order", "dead-letter of request %d in state %s", e.Arg, reqState[e.Arg])
			}
			reqState[e.Arg] = reqDead
		case trace.KindRequestResurrected:
			resurrectedEv++
			if reqState[e.Arg] != reqDead {
				add(e, "request-order", "resurrection of request %d in state %s", e.Arg, reqState[e.Arg])
			}
			reqState[e.Arg] = reqResurrected
		case trace.KindRequestShed:
			shedEv++
			if reqState[e.Arg] != reqPending {
				// A shed consumes no attempt: it is legal only before the
				// first provisioning attempt, straight out of the admission
				// queue.
				add(e, "request-order", "shed of request %d in state %s (legal only from pending)", e.Arg, reqState[e.Arg])
			}
			reqState[e.Arg] = reqShed

		case trace.KindReclaimEscalate:
			// Scheduler-wide rungs carry CPU -1; per-slot watchdog rungs
			// ("forced-ipi", "teardown") are not lattice transitions.
			if e.CPU != -1 {
				break
			}
			switch e.Note {
			case "sw-probe":
				if mode != "normal" {
					add(e, "mode-lattice", "probe fallback from mode %s (legal only from normal)", mode)
				}
				mode = "sw-probe"
			case "static":
				if mode == "static" {
					add(e, "mode-lattice", "static fallback while already static")
				}
				mode = "static"
			}
		case trace.KindDefenseRecover:
			switch e.Note {
			case "sw-probe":
				if mode != "static" {
					add(e, "mode-lattice", "recovery to sw-probe from mode %s (legal only from static)", mode)
				}
				mode = "sw-probe"
			case "normal":
				if mode != "sw-probe" {
					add(e, "mode-lattice", "recovery to normal from mode %s (legal only from sw-probe)", mode)
				}
				mode = "normal"
			default:
				add(e, "mode-lattice", "defense_recover with unknown rung %q", e.Note)
			}
		case trace.KindNodeRejoin:
			if mode != "normal" {
				add(e, "mode-lattice", "node_rejoin while mode is %s (rejoin implies normal)", mode)
			}
		case trace.KindOverloadEnter:
			if e.Arg != ovl+1 {
				add(e, "overload-lattice", "overload_enter to rung %d from rung %d (must climb exactly one)", e.Arg, ovl)
			}
			if e.Arg < 1 || e.Arg > 3 {
				add(e, "overload-lattice", "overload_enter to rung %d outside the ladder (1..3)", e.Arg)
			}
			ovl = e.Arg
		case trace.KindOverloadExit:
			if e.Arg != ovl-1 {
				add(e, "overload-lattice", "overload_exit to rung %d from rung %d (must descend exactly one)", e.Arg, ovl)
			}
			if e.Arg < 0 || e.Arg > 2 {
				add(e, "overload-lattice", "overload_exit to rung %d outside the ladder (0..2)", e.Arg)
			}
			ovl = e.Arg
		case trace.KindRebalanceScan:
			set, ok := parseExclusions(e.Note)
			if !ok {
				add(e, "placement-scan", "rebalance_scan note %q is not \"hot=... excl=...\"; exclusion checks need the decision record", e.Note)
				break
			}
			excluded = set
			sawScan = true
		case trace.KindVMPlace:
			if e.CPU < 0 {
				// Cluster-level dead-letter: every member excluded at
				// decision time. The VM gains no residency; a re-place
				// attempt of a node-dead request sheds whatever stale
				// residency entry the mirror still holds.
				delete(vmNode, e.Arg)
				break
			}
			if prev, resident := vmNode[e.Arg]; resident && e.Note != "replaced" {
				add(e, "placement-residency", "vm_place of VM %d on member %d while still resident on member %d", e.Arg, e.CPU, prev)
			}
			if sawScan && excluded[e.CPU] {
				add(e, "placement-excluded", "vm_place of VM %d on member %d, excluded at decision time", e.Arg, e.CPU)
			}
			if _, mig := migOpen[e.Arg]; mig {
				add(e, "placement-residency", "vm_place of VM %d while a migration is in flight", e.Arg)
			}
			vmNode[e.Arg] = e.CPU
		case trace.KindVMMigrateStart:
			migStarts++
			dst, ok := parseMember(e.Note, "to=")
			if !ok {
				add(e, "migration-order", "vm_migrate_start note %q carries no \"to=<member>\"", e.Note)
				break
			}
			if src, resident := vmNode[e.Arg]; !resident {
				add(e, "migration-order", "vm_migrate_start of VM %d which is resident nowhere", e.Arg)
			} else if src != e.CPU {
				add(e, "migration-order", "vm_migrate_start of VM %d from member %d but it is resident on member %d", e.Arg, e.CPU, src)
			}
			if _, open := migOpen[e.Arg]; open {
				add(e, "migration-order", "vm_migrate_start of VM %d with a migration already in flight", e.Arg)
			}
			if dst == e.CPU {
				add(e, "migration-order", "vm_migrate_start of VM %d to its own member %d", e.Arg, dst)
			}
			if sawScan && excluded[dst] {
				add(e, "placement-excluded", "vm_migrate_start of VM %d targets member %d, excluded at decision time", e.Arg, dst)
			}
			migOpen[e.Arg] = migration{src: e.CPU, dst: dst}
		case trace.KindVMMigrateDone:
			migDones++
			m, open := migOpen[e.Arg]
			if !open {
				add(e, "migration-order", "vm_migrate_done of VM %d without a matching start", e.Arg)
				break
			}
			if m.dst != e.CPU {
				add(e, "migration-order", "vm_migrate_done of VM %d on member %d but the start targeted member %d", e.Arg, e.CPU, m.dst)
			}
			delete(migOpen, e.Arg)
			// Residency moves source → target only now: the VM ran on the
			// source for the whole copy (live migration), so at no instant
			// was it resident on two members or on none.
			vmNode[e.Arg] = e.CPU
		default:
			// Every kind must be replayed above or declared out of scope
			// in the trace schema; an event in neither means the schema
			// grew past the auditor.
			if e.Kind.Info().Audit != trace.AuditOutOfScope {
				add(e, "unhandled-kind", "event kind %s is neither replayed nor declared out of scope", e.Kind)
			}
		}
	}

	// Migration conservation: every start is matched by a done or still
	// in flight at the horizon. Unmatched dones above break the identity
	// here too, so a trace that pairs wrongly cannot balance.
	if migStarts != migDones+len(migOpen) {
		addEnd("migration-conservation",
			"migration starts=%d != dones=%d + in-flight-at-horizon=%d",
			migStarts, migDones, len(migOpen))
	}

	// Residency still open at the horizon is legal truncation (the run
	// simply ended mid-lend); only *pairing* breaches count. The same
	// goes for requests still in flight — but they must be accounted:
	// issued = completed + (dead-lettered − resurrected) + pending.
	pending := 0
	for _, id := range reqOrder {
		switch reqState[id] {
		case reqCompleted, reqDead, reqShed:
		default:
			pending++
		}
	}
	rep.Requests = RequestTotals{
		Issued: issuedEv, Completed: completedEv, Dead: deadEv,
		Resurrected: resurrectedEv, Shed: shedEv, Pending: pending,
	}
	if issuedEv != completedEv+(deadEv-resurrectedEv)+shedEv+pending {
		addEnd("request-conservation",
			"issued=%d != completed=%d + (dead=%d - resurrected=%d) + shed=%d + pending=%d",
			issuedEv, completedEv, deadEv, resurrectedEv, shedEv, pending)
	}

	if bc := opts.Breaker; bc != nil {
		if bc.Closes > bc.HalfOpens {
			addEnd("breaker-legality", "closes=%d > half-opens=%d (only the half-open probe may close)", bc.Closes, bc.HalfOpens)
		}
		if bc.HalfOpens > bc.Trips {
			addEnd("breaker-legality", "half-opens=%d > trips=%d (every half-open follows a trip)", bc.HalfOpens, bc.Trips)
		}
		if bc.Rejects > 0 && bc.Trips == 0 {
			addEnd("breaker-legality", "rejects=%d with trips=0 (rejection requires an open circuit)", bc.Rejects)
		}
		switch bc.State {
		case controlplane.BreakerOpen:
			if bc.Trips == 0 {
				addEnd("breaker-legality", "state=open with trips=0")
			}
		case controlplane.BreakerHalfOpen:
			if bc.HalfOpens == 0 {
				addEnd("breaker-legality", "state=half-open with half-opens=0")
			}
		case controlplane.BreakerClosed:
			if bc.Trips > 0 && bc.Closes == 0 {
				addEnd("breaker-legality", "state=closed after %d trips with closes=0", bc.Trips)
			}
		}
	}
	return rep
}

// parseExclusions strict-parses a rebalance_scan note of the form
// "hot=<list> excl=<list>" where each list is either "-" (empty) or a
// comma-separated run of member indices, and returns the exclusion set.
// Anything else is malformed: the auditor refuses to guess at a decision
// record it cannot read.
func parseExclusions(note string) (map[int]bool, bool) {
	hotPart, exclPart, ok := strings.Cut(note, " ")
	if !ok || !strings.HasPrefix(hotPart, "hot=") || !strings.HasPrefix(exclPart, "excl=") {
		return nil, false
	}
	if _, ok := parseMemberList(strings.TrimPrefix(hotPart, "hot=")); !ok {
		return nil, false
	}
	excl, ok := parseMemberList(strings.TrimPrefix(exclPart, "excl="))
	if !ok {
		return nil, false
	}
	set := make(map[int]bool, len(excl))
	for _, m := range excl {
		set[m] = true
	}
	return set, true
}

// parseMemberList parses "-" (empty) or "3,7,12" into member indices.
func parseMemberList(s string) ([]int, bool) {
	if s == "-" {
		return nil, true
	}
	if s == "" {
		return nil, false
	}
	parts := strings.Split(s, ",")
	members := make([]int, 0, len(parts))
	for _, p := range parts {
		m, err := strconv.Atoi(p)
		if err != nil || m < 0 {
			return nil, false
		}
		members = append(members, m)
	}
	return members, true
}

// parseMember extracts the member index after the given key (for
// example "to=" in a vm_migrate_start note, "from=" in a done).
func parseMember(note, key string) (int, bool) {
	idx := strings.Index(note, key)
	if idx < 0 {
		return 0, false
	}
	rest := note[idx+len(key):]
	if end := strings.IndexAny(rest, " ,"); end >= 0 {
		rest = rest[:end]
	}
	m, err := strconv.Atoi(rest)
	if err != nil || m < 0 {
		return 0, false
	}
	return m, true
}
