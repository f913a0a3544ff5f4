package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// firstLifeFails NACKs exactly the first maxAttempts ops — each failed
// attempt aborts at its first NACK, so the request's first life burns
// the whole retry budget and dead-letters, and any later life succeeds.
// Call-count gating keeps the shape independent of when the request
// happens to be issued.
func firstLifeFails() map[int]bool { return map[int]bool{0: true, 1: true, 2: true} }

// drainSettled runs the node in fixed chunks until the manager settles
// (every request terminal and no resurrection decision in flight).
func drainSettled(t *testing.T, tc *core.TaiChi, mgr *Manager, vms int) {
	t.Helper()
	for step := 0; step < 120; step++ {
		tc.Run(tc.Engine().Now().Add(500 * sim.Millisecond))
		if int(mgr.Issued) >= vms && mgr.Settled() {
			return
		}
	}
	t.Fatalf("requests never settled: issued=%d completed=%d dead=%d pending=%d",
		mgr.Issued, mgr.Completed, mgr.DeadLettered(), mgr.pendingRequeues)
}

// TestRequeueResurrectsAfterNodeHeals is the requeue happy path: the
// node is sick past the whole retry budget, the request dead-letters,
// the node heals during the dwell, and the resurrected life completes.
func TestRequeueResurrectsAfterNodeHeals(t *testing.T) {
	run := func() string {
		tc := core.NewDefault(71)
		tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: firstLifeFails()})

		cfg := DefaultConfig(1)
		cfg.VMs = 1
		cfg.VMLifetime = 0
		cfg.Retry = DefaultRetryPolicy()
		cfg.Requeue = DefaultRequeuePolicy()
		mgr := NewManager(tc, cfg)
		mgr.Start()
		drainSettled(t, tc, mgr, 1)

		req := mgr.Requests()[0]
		if mgr.Completed != 1 || req.State() != ReqCompleted {
			t.Fatalf("completed=%d state=%v, want the resurrected life to finish", mgr.Completed, req.State())
		}
		if mgr.Resurrected() != 1 || req.Resurrections != 1 {
			t.Fatalf("resurrected=%d req.Resurrections=%d, want 1/1", mgr.Resurrected(), req.Resurrections)
		}
		// The first life burned the full budget; the second life got a
		// fresh one and needed at least one more attempt.
		if req.Attempts <= maxAttempts {
			t.Fatalf("attempts=%d, want more than the first life's budget %d", req.Attempts, maxAttempts)
		}
		// DeadLettered counts the transient dead-letter even though the
		// request came back — the counter is incidence, not final state.
		if mgr.DeadLettered() != 1 {
			t.Fatalf("dead-letter incidence %d, want 1", mgr.DeadLettered())
		}
		life2 := false
		for _, ev := range tc.Node.Tracer.Events() {
			if ev.Kind == trace.KindRequestResurrected && ev.Note == "life2" {
				life2 = true
			}
		}
		if !life2 {
			t.Fatal("no req_resurrected/life2 trace event emitted")
		}
		return fmt.Sprintf("%s attempts=%d res=%d", mgr.Outcomes.String(), req.Attempts, req.Resurrections)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged across requeue runs:\n%s\n%s", a, b)
	}
}

// TestRequeueBudgetBounded: a permanently failing node gets exactly
// maxResurrections extra lives, each with a fresh attempt budget, and
// then stays dead-lettered with the manager settled.
func TestRequeueBudgetBounded(t *testing.T) {
	tc := core.NewDefault(72)
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: failAll()})

	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	cfg.Requeue = DefaultRequeuePolicy()
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainSettled(t, tc, mgr, 1)

	req := mgr.Requests()[0]
	if req.State() != ReqDeadLettered {
		t.Fatalf("state=%v, want dead-lettered after the budget ran out", req.State())
	}
	if mgr.Resurrected() != maxResurrections || req.Resurrections != maxResurrections {
		t.Fatalf("resurrected=%d req.Resurrections=%d, want the full budget of %d",
			mgr.Resurrected(), req.Resurrections, maxResurrections)
	}
	// 1+maxResurrections lives, each with maxAttempts fresh attempts.
	if want := (1 + maxResurrections) * maxAttempts; req.Attempts != want {
		t.Fatalf("attempts=%d, want %d (fresh budget per life)", req.Attempts, want)
	}
	if !mgr.Settled() || mgr.pendingRequeues != 0 {
		t.Fatal("manager not settled after the last life dead-lettered")
	}
}

// TestRequeueHealthGateAbandons: a node that never reports healthy gets
// polled exactly maxHealthChecks times and the request is then abandoned
// in the dead-letter state — no resurrection onto a sick node, ever.
func TestRequeueHealthGateAbandons(t *testing.T) {
	tc := core.NewDefault(73)
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: failAll()})

	polls := 0
	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	cfg.Requeue = DefaultRequeuePolicy()
	cfg.Healthy = func() bool { polls++; return false }
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainSettled(t, tc, mgr, 1)

	if polls != maxHealthChecks {
		t.Fatalf("health polled %d times, want exactly maxHealthChecks=%d", polls, maxHealthChecks)
	}
	if mgr.Resurrected() != 0 {
		t.Fatalf("resurrected=%d onto a node that never reported healthy", mgr.Resurrected())
	}
	if mgr.cRequeued.Value() != 1 {
		t.Fatalf("requeued counter %d, want the single armed decision", mgr.cRequeued.Value())
	}
	if req := mgr.Requests()[0]; req.State() != ReqDeadLettered || req.Resurrections != 0 {
		t.Fatalf("state=%v resurrections=%d, want an abandoned dead letter", req.State(), req.Resurrections)
	}
}

// TestRequeueHealthGateWaitsForHealth: an unhealthy verdict re-polls
// rather than abandoning, and the resurrection fires once the node
// reports healthy again.
func TestRequeueHealthGateWaitsForHealth(t *testing.T) {
	tc := core.NewDefault(74)
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: firstLifeFails()})

	polls := 0
	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	cfg.Requeue = DefaultRequeuePolicy()
	cfg.Healthy = func() bool { polls++; return polls >= 3 }
	mgr := NewManager(tc, cfg)
	mgr.Start()
	drainSettled(t, tc, mgr, 1)

	if polls < 2 {
		t.Fatalf("health polled %d times; the gate never had to wait", polls)
	}
	if mgr.Resurrected() != 1 || mgr.Completed != 1 {
		t.Fatalf("resurrected=%d completed=%d, want the request back once the node healed", mgr.Resurrected(), mgr.Completed)
	}
}

// TestRequeueDisabledIsInert pins the backward-compat contract: without
// the policy there is no requeue stream, no timers, and a dead letter is
// truly terminal — Settled degenerates to Terminal.
func TestRequeueDisabledIsInert(t *testing.T) {
	tc := core.NewDefault(75)
	tc.SetCoordinator(&flakyCoord{inner: tc.Coordinator(), engine: tc.Engine(), fail: failAll()})

	cfg := DefaultConfig(1)
	cfg.VMs = 1
	cfg.VMLifetime = 0
	cfg.Retry = DefaultRetryPolicy()
	mgr := NewManager(tc, cfg)
	if mgr.requeueR != nil {
		t.Fatal("disabled requeue policy still created the cluster.requeue stream")
	}
	mgr.Start()
	drainVMs(t, tc, mgr, 1)
	// Linger well past any would-be dwell: nothing may resurrect.
	tc.Run(tc.Engine().Now().Add(2 * sim.Second))

	if mgr.Resurrected() != 0 || mgr.cRequeued.Value() != 0 {
		t.Fatalf("requeue machinery moved while disabled: requeued=%d resurrected=%d",
			mgr.cRequeued.Value(), mgr.Resurrected())
	}
	if !mgr.Settled() {
		t.Fatal("Settled must degenerate to Terminal without requeue")
	}
	if req := mgr.Requests()[0]; req.State() != ReqDeadLettered {
		t.Fatalf("state=%v, want a terminal dead letter", req.State())
	}
}
