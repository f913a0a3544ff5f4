// Package cluster models the cluster-management side of the paper's
// VM-startup experiments (Figures 2 and 17): VM creation requests arrive
// at the SmartNIC's control plane, a device-management CP task provisions
// the emulated devices (coordinating with the data plane), QEMU then
// instantiates the VM on the host, and the manager accounts startup time
// against the SLO. Instance density scales both the request rate and the
// background monitoring load, which is what drives the baseline's CP
// starvation at high density.
package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/controlplane"
	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Host abstracts the node flavour (Tai Chi, static, type-2) the manager
// drives: it can deploy CP tasks and exposes the simulated clock.
type Host interface {
	// SpawnCP deploys one CP task.
	SpawnCP(name string, prog kernel.Program) *kernel.Thread
	// Engine exposes the node's event engine.
	Engine() *sim.Engine
	// Coordinator returns the CP→DP device-configuration path.
	Coordinator() controlplane.DPCoordinator
	// Lock returns the shared device-driver lock.
	Lock() *kernel.SpinLock
	// Stream returns a deterministic RNG stream.
	Stream(name string) *rand.Rand
	// Tracer exposes the node's event tracer. The manager records
	// request-lifecycle events (req_issued, req_attempt, req_retry,
	// req_completed, req_deadletter) into it, which is what lets
	// taichi-sim -export label retry and dead-letter activity on the
	// timeline.
	Tracer() *trace.Tracer
}

// Config parameterizes the VM-startup workload.
type Config struct {
	// Density is the instance-density multiplier (1.0 = the paper's
	// normal density).
	Density float64
	// BaseArrivalRate is VM creations/sec at density 1.0; the actual rate
	// scales linearly with density.
	BaseArrivalRate float64
	// QEMUTime is the host-side instantiation time after device init.
	QEMUTime sim.Duration
	// StartupSLO normalizes reported startup times.
	StartupSLO sim.Duration
	// MonitorsPerDensity is how many periodic monitoring tasks run per
	// 1.0 of density (device monitoring scales with device count).
	MonitorsPerDensity int
	// Devices describes each VM's device complement.
	Devices []controlplane.DeviceSpec
	// VMs caps how many creations to issue (0 = unlimited).
	VMs int
	// VMLifetime is the mean VM lifetime before destruction triggers the
	// device-deinitialization workflow (0 = VMs never terminate).
	VMLifetime sim.Duration
	// Retry governs per-request deadlines, retries and dead-lettering;
	// the zero value disables the machinery entirely (byte-identical to
	// the pre-lifecycle manager).
	Retry RetryPolicy
	// Requeue governs bounded dead-letter resurrection; the zero value
	// disables it (dead-lettered stays terminal).
	Requeue RequeuePolicy
	// Admission governs the token-bucket admission gate and the
	// priority-aware queue-deadline shedder (admission.go); the zero
	// value disables the machinery entirely.
	Admission AdmissionPolicy
	// Classify assigns each request id its priority class; nil means
	// every request is PriorityNormal. Must be a pure function of the id
	// (it is consulted once per request and must not draw randomness).
	Classify func(id int) Priority
	// OverloadLevel, when non-nil, reports the node's overload-ladder
	// rung (0 normal … 3 brownout, core.OverloadState ordinals); the
	// admission gate tightens its bucket and shrinks sojourn thresholds
	// accordingly. Nil means permanently normal. Consulted only at gate
	// and sweep time, so it draws nothing and schedules nothing.
	OverloadLevel func() int
	// Healthy, when non-nil, gates resurrection on target-node health —
	// typically "scheduler not in static fallback and breaker not open".
	// Nil means always healthy. Consulted only from requeue health
	// checks, so it draws nothing and schedules nothing itself.
	Healthy func() bool
	// WrapCP, when non-nil, wraps every device-management program the
	// manager spawns — the fault injector's WrapCP hook, so chaos runs
	// can crash/hang provisioning jobs mid-flight.
	WrapCP func(kernel.Program) kernel.Program
	// Placement puts the manager under an external cluster placer
	// (placement.go); the zero value disables it entirely.
	Placement PlacementPolicy
}

// DefaultConfig mirrors the §6.6 setup.
func DefaultConfig(density float64) Config {
	return Config{
		Density:            density,
		BaseArrivalRate:    12,
		QEMUTime:           150 * sim.Millisecond,
		StartupSLO:         280 * sim.Millisecond,
		MonitorsPerDensity: 20,
		Devices:            controlplane.DefaultVMDevices(),
		VMLifetime:         60 * sim.Second,
	}
}

// Manager drives VM creations against a host.
type Manager struct {
	cfg  Config
	host Host
	r    *rand.Rand

	// StartupTime records request→VM-running wall times.
	StartupTime *metrics.Histogram
	// CPExecTime records the device-management portion alone (the CP task
	// execution time of Figure 2).
	CPExecTime *metrics.Histogram
	// Issued / Completed count VM creations; Destroyed counts completed
	// teardowns.
	Issued    uint64
	Completed uint64
	Destroyed uint64

	// Devices is the node's emulated-device inventory.
	Devices *device.Registry

	// Outcomes tallies request terminals and retry activity in
	// registration order: issued, completed, retried, dead-lettered,
	// timeouts, nacks.
	Outcomes *metrics.Group

	reqs   []*Request
	retryR *rand.Rand // "cluster.retry" stream; nil when retries disabled
	// requeueR is the "cluster.requeue" stream; nil when requeue is
	// disabled. pendingRequeues counts dead-lettered requests with a
	// resurrection decision still in flight — Settled() is false until
	// they drain.
	requeueR        *rand.Rand
	pendingRequeues int
	// tracer records request-lifecycle events into the host's trace; a
	// nil tracer is a valid no-op sink, so emission is unconditional.
	// Emitting never schedules events or draws randomness, which keeps
	// traced and untraced runs replay-identical.
	tracer *trace.Tracer

	cIssued, cCompleted, cRetried *metrics.Counter
	cDead, cTimeouts, cNacks      *metrics.Counter
	cRequeued, cResurrected       *metrics.Counter
	cShed                         *metrics.Counter

	// Admission-gate state (admission.go): per-class FIFO queues, the
	// token bucket, and the armed flags of the two control loops. admitR
	// and shedR are the "cluster.admit" / "cluster.shed" streams, nil
	// when admission is disabled.
	admitR, shedR *rand.Rand
	admitQ        [NumPriorities][]*Request
	queued        int
	tokens        float64
	lastRefill    sim.Time
	drainArmed    bool
	shedArmed     bool
	shedByClass   [NumPriorities]uint64

	// Placed-mode state (placement.go): resident-VM load programs and
	// the dead-letter parking lot the placer drains. Both stay nil when
	// Placement is disabled.
	vmLoads    map[int]*vmLoad
	placedDead []*Request

	stopped bool
}

// NewManager builds the workload around a host.
func NewManager(host Host, cfg Config) *Manager {
	cfg.Retry = cfg.Retry.normalize()
	cfg.Requeue = cfg.Requeue.normalize()
	cfg.Admission = cfg.Admission.normalize()
	cfg.Placement = cfg.Placement.normalize()
	g := metrics.NewGroup("requests")
	m := &Manager{
		cfg:         cfg,
		host:        host,
		r:           host.Stream("cluster"),
		StartupTime: metrics.NewHistogram("vm.startup"),
		CPExecTime:  metrics.NewHistogram("vm.cp_exec"),
		Devices:     device.NewRegistry(host.Engine().Now),
		Outcomes:    g,
		tracer:      host.Tracer(),
		cIssued:     g.Counter("issued"),
		cCompleted:  g.Counter("completed"),
		cRetried:    g.Counter("retried"),
		cDead:       g.Counter("dead-lettered"),
		cTimeouts:   g.Counter("timeouts"),
		cNacks:      g.Counter("nacks"),
	}
	// Requeue counters are appended after the original six so existing
	// registration-order consumers keep their positions; shed follows
	// them for the same reason.
	m.cRequeued = g.Counter("requeued")
	m.cResurrected = g.Counter("resurrected")
	m.cShed = g.Counter("shed")
	if cfg.Retry.Enabled {
		// The backoff-jitter stream exists only when retries can draw
		// from it, keeping disabled-retry runs stream-for-stream
		// identical to the pre-lifecycle manager.
		m.retryR = host.Stream("cluster.retry")
	}
	if cfg.Requeue.Enabled {
		// Same pattern: the requeue-jitter stream exists only when the
		// dead-letter requeue can draw from it.
		m.requeueR = host.Stream("cluster.requeue")
	}
	if cfg.Admission.Enabled {
		// The gate's two control-loop streams exist only when the gate
		// can draw from them, keeping admission-disabled runs
		// stream-for-stream identical to the pre-admission manager. The
		// bucket starts full so a quiet node admits its first burst.
		m.admitR = host.Stream("cluster.admit")
		m.shedR = host.Stream("cluster.shed")
		m.tokens = cfg.Admission.Burst
	}
	return m
}

// emit records one request-lifecycle trace event (no-op with a nil
// tracer). CPU is -1: requests live in the manager, not on a core.
func (m *Manager) emit(kind trace.Kind, id int, note string) {
	m.tracer.Emit(m.host.Engine().Now(), kind, -1, int64(id), note)
}

// Start launches the background monitors and the VM-creation arrival
// process.
func (m *Manager) Start() {
	nMon := int(float64(m.cfg.MonitorsPerDensity) * m.cfg.Density)
	for i := 0; i < nMon; i++ {
		mcfg := controlplane.DefaultMonitor()
		m.host.SpawnCP(fmt.Sprintf("monitor%d", i),
			controlplane.Monitor(mcfg, m.host.Stream(fmt.Sprintf("mon%d", i))))
	}
	if m.cfg.Placement.Enabled {
		// Placed mode: arrivals come from the cluster placer via Submit,
		// not the node-local Poisson process. Monitors still run — they
		// are the node's own background, not request traffic.
		return
	}
	m.scheduleNext()
}

// Stop halts new VM creations (in-flight ones complete).
func (m *Manager) Stop() { m.stopped = true }

func (m *Manager) scheduleNext() {
	if m.stopped || (m.cfg.VMs > 0 && int(m.Issued) >= m.cfg.VMs) {
		return
	}
	rate := m.cfg.BaseArrivalRate * m.cfg.Density
	gap := sim.Duration(float64(sim.Second) / rate)
	m.host.Engine().ScheduleNamed(sim.Exponential(m.r, gap), "cluster.arrival", func() {
		m.createVM()
		m.scheduleNext()
	})
}

// createVM runs the Figure 1c red path: CP device init, then QEMU. Each
// device gets an inventory record that activates as its queues come up;
// once the VM is running, its eventual termination triggers the
// deinitialization workflow. The request object tracks the creation to a
// terminal state; with retries enabled, each attempt runs under a
// deadline and failures detour through backoff or the dead-letter path.
func (m *Manager) createVM() { m.issueRequest() }

// issueRequest is createVM's body, factored so placed mode (Submit) can
// issue externally-routed requests through the identical lifecycle and
// keep a handle on the request it created.
func (m *Manager) issueRequest() *Request {
	m.Issued++
	id := int(m.Issued)
	class := PriorityNormal
	// The issue note carries the class only when a classifier is set, so
	// unclassified runs keep their historical trace bytes.
	note := ""
	if m.cfg.Classify != nil {
		class = m.cfg.Classify(id)
		note = class.String()
	}
	req := &Request{
		ID:            id,
		Class:         class,
		IssuedAt:      m.host.Engine().Now(),
		state:         ReqPending,
		attemptBudget: m.attemptBudgetFor(class),
	}
	m.reqs = append(m.reqs, req)
	m.cIssued.Inc()
	m.emit(trace.KindRequestIssued, id, note)
	if m.cfg.Admission.Enabled {
		m.admitOrEnqueue(req)
		return req
	}
	m.provisionRecords(req)
	m.beginAttempt(req)
	return req
}

// provisionRecords fills the request's inventory records (one ENIC, the
// rest VBlk per Table 4). A resurrected request calls it again: the
// dead-letter rollback aborted the old records (Gone, out of the
// registry), so a fresh life starts from fresh inventory.
func (m *Manager) provisionRecords(req *Request) {
	req.records = make([]*device.Device, len(m.cfg.Devices))
	for i, spec := range m.cfg.Devices {
		kind := device.VBlk
		if i == 0 {
			kind = device.ENIC
		}
		bindings := make([]device.QueueBinding, spec.Queues)
		for q := range bindings {
			bindings[q] = device.QueueBinding{Flow: i*8 + q, Core: -1}
		}
		req.records[i] = m.Devices.Provision(req.ID, kind, bindings)
	}
}

// beginAttempt issues one provisioning attempt. The first attempt is
// segment-for-segment identical to the pre-lifecycle manager; resumed
// attempts draw from a fresh per-attempt stream and skip devices the
// previous attempt already activated (idempotent re-provisioning).
func (m *Manager) beginAttempt(req *Request) {
	req.Attempts++
	attempt := req.Attempts
	req.state = ReqProvisioning
	m.emit(trace.KindRequestAttempt, req.ID, fmt.Sprintf("attempt%d", attempt))

	stream := fmt.Sprintf("vm%d", req.ID)
	name := fmt.Sprintf("devinit-vm%d", req.ID)
	var skip []bool
	var onFail func(int)
	if attempt > 1 {
		stream = fmt.Sprintf("vm%d.retry%d", req.ID, attempt-1)
		name = fmt.Sprintf("devinit-vm%d.retry%d", req.ID, attempt-1)
		skip = make([]bool, len(req.records))
		for i, d := range req.records {
			skip[i] = d.State() == device.Active
		}
	}
	if m.cfg.Retry.Enabled {
		onFail = func(int) { m.attemptFailed(req, attempt, "nack") }
	}

	prog := controlplane.DeviceInitJob(m.cfg.Devices, skip, m.host.Lock(),
		m.host.Coordinator(), m.host.Stream(stream),
		func(i int) { m.deviceReady(req, attempt, i) },
		onFail,
		func() { m.attemptDevicesDone(req, attempt) })
	if m.cfg.WrapCP != nil {
		prog = m.cfg.WrapCP(prog)
	}
	m.host.SpawnCP(name, prog)

	if m.cfg.Retry.Enabled {
		req.deadline = m.host.Engine().ScheduleNamed(m.cfg.Retry.AttemptTimeout, "cluster.deadline", func() {
			m.attemptFailed(req, attempt, "timeout")
		})
	}
}

// deviceReady activates one device record, ignoring callbacks from
// superseded attempts and from attempts the request no longer considers
// live — state must still be Provisioning, so an attempt already
// declared failed (deadline fired, backoff pending) cannot mutate the
// inventory behind the retry's back (EnsureActive additionally makes
// double activation a no-op).
func (m *Manager) deviceReady(req *Request, attempt, i int) {
	if attempt != req.Attempts || req.state != ReqProvisioning {
		return
	}
	m.Devices.EnsureActive(req.records[i])
}

// attemptDevicesDone is the success path: all devices are configured, so
// cancel the deadline, account the CP execution time, and wait out QEMU.
// The state check is load-bearing: an attempt whose deadline already
// fired has moved the request to Retrying, and if that attempt then
// finishes anyway (slow CP queue, hang that resumes) its completion must
// be ignored — otherwise both it and the backoff-launched retry would
// complete the request, double-counting Completed/StartupTime and
// breaking the exactly-one-terminal-outcome invariant.
func (m *Manager) attemptDevicesDone(req *Request, attempt int) {
	if attempt != req.Attempts || req.state != ReqProvisioning {
		return
	}
	if req.deadline != (sim.Handle{}) {
		req.deadline.Cancel()
		req.deadline = sim.Handle{}
	}
	devDone := m.host.Engine().Now()
	m.CPExecTime.Record(devDone.Sub(req.IssuedAt))
	// Devices ready: notify QEMU (step 5) and wait out the host
	// instantiation.
	m.host.Engine().ScheduleNamed(m.cfg.QEMUTime, "cluster.qemu", func() {
		m.Completed++
		req.state = ReqCompleted
		req.CompletedAt = m.host.Engine().Now()
		m.cCompleted.Inc()
		m.emit(trace.KindRequestCompleted, req.ID, "")
		m.StartupTime.Record(req.CompletedAt.Sub(req.IssuedAt))
		if m.cfg.VMLifetime > 0 {
			m.host.Engine().ScheduleNamed(sim.Exponential(m.r, m.cfg.VMLifetime), "cluster.vm-expire", func() {
				m.destroyVM(req.ID, req.records)
			})
		}
	})
}

// attemptFailed handles a failed attempt (deadline expiry or DP NACK):
// either schedule the next attempt after exponential backoff with jitter
// from the dedicated retry stream, or dead-letter the request.
func (m *Manager) attemptFailed(req *Request, attempt int, reason string) {
	if attempt != req.Attempts || req.Terminal() || req.state == ReqRetrying {
		return
	}
	if req.deadline != (sim.Handle{}) {
		req.deadline.Cancel()
		req.deadline = sim.Handle{}
	}
	switch reason {
	case "timeout":
		m.cTimeouts.Inc()
	case "nack":
		m.cNacks.Inc()
	}
	if req.Attempts >= req.attemptBudget {
		m.deadLetter(req, reason)
		return
	}
	req.state = ReqRetrying
	m.cRetried.Inc()
	m.emit(trace.KindRequestRetry, req.ID, reason)
	delay := sim.Jitter(m.retryR, m.cfg.Retry.backoff(attempt), m.cfg.Retry.JitterFrac)
	m.host.Engine().ScheduleNamed(delay, "cluster.retry", func() {
		if req.state != ReqRetrying {
			return
		}
		m.beginAttempt(req)
	})
}

// deadLetter is the failure terminal: record the reason and roll back
// every device record the attempts left behind. With requeue enabled it
// is terminal only provisionally — a bounded, health-gated resurrection
// may still pull the request back.
func (m *Manager) deadLetter(req *Request, reason string) {
	req.state = ReqDeadLettered
	req.Reason = reason
	m.cDead.Inc()
	m.emit(trace.KindRequestDeadLetter, req.ID, reason)
	for _, d := range req.records {
		m.Devices.Abort(d)
	}
	if m.cfg.Placement.Enabled {
		// The placer owns resurrection in placed mode: park the request
		// for DrainDeadLetters so it re-enters through cluster placement
		// instead of the node-local requeue pinning it here.
		m.placedDead = append(m.placedDead, req)
		return
	}
	m.maybeRequeue(req)
}

// --- dead-letter requeue ----------------------------------------------------

// maybeRequeue arms one resurrection decision for a freshly dead-lettered
// request, if the policy allows another life.
func (m *Manager) maybeRequeue(req *Request) {
	if !m.cfg.Requeue.Enabled || req.Resurrections >= m.resurrectionBudgetFor(req.Class) {
		return
	}
	m.pendingRequeues++
	m.cRequeued.Inc()
	m.scheduleRequeueCheck(req, 1)
}

// scheduleRequeueCheck waits out the (jittered) requeue dwell and then
// consults node health: healthy → resurrect; unhealthy → re-poll up to
// MaxHealthChecks times, after which the request stays dead-lettered.
func (m *Manager) scheduleRequeueCheck(req *Request, check int) {
	delay := sim.Jitter(m.requeueR, m.cfg.Requeue.RequeueDelay, m.cfg.Requeue.JitterFrac)
	m.host.Engine().ScheduleNamed(delay, "cluster.requeue", func() {
		if req.state != ReqDeadLettered {
			m.pendingRequeues--
			return
		}
		if m.cfg.Healthy != nil && !m.cfg.Healthy() {
			if check >= m.cfg.Requeue.MaxHealthChecks {
				// The node never came back: abandon the resurrection.
				m.pendingRequeues--
				return
			}
			m.scheduleRequeueCheck(req, check+1)
			return
		}
		m.pendingRequeues--
		m.resurrect(req)
	})
}

// resurrect pulls a dead-lettered request back into the pipeline: fresh
// inventory records (the rollback removed the old ones), a fresh attempt
// budget, and a new provisioning attempt. Attempts stays monotonic so
// per-attempt RNG stream names ("vm%d.retry%d") never repeat across
// lives.
func (m *Manager) resurrect(req *Request) {
	req.Resurrections++
	req.attemptBudget = req.Attempts + m.attemptBudgetFor(req.Class)
	req.Reason = ""
	m.cResurrected.Inc()
	m.emit(trace.KindRequestResurrected, req.ID, fmt.Sprintf("life%d", req.Resurrections+1))
	m.provisionRecords(req)
	m.beginAttempt(req)
}

// destroyVM runs the teardown workflow: CP deinitializes every device and
// releases its DP queues.
func (m *Manager) destroyVM(id int, records []*device.Device) {
	for _, d := range records {
		m.Devices.BeginDestroy(d)
	}
	prog := controlplane.DeviceDeinitJob(m.cfg.Devices, m.host.Lock(),
		m.host.Coordinator(), m.host.Stream(fmt.Sprintf("vmdel%d", id)),
		func(i int) { m.Devices.FinishDestroy(records[i]) },
		func() { m.Destroyed++ })
	m.host.SpawnCP(fmt.Sprintf("devdeinit-vm%d", id), prog)
}

// NormalizedStartup returns mean startup time divided by the SLO — the
// y-axis of Figures 2 and 17.
func (m *Manager) NormalizedStartup() float64 {
	if m.StartupTime.Count() == 0 {
		return 0
	}
	return float64(m.StartupTime.Mean()) / float64(m.cfg.StartupSLO)
}

// MeanCPExec returns the mean device-management execution time.
func (m *Manager) MeanCPExec() sim.Duration { return m.CPExecTime.Mean() }

// Requests returns every issued request in issue order.
func (m *Manager) Requests() []*Request { return m.reqs }

// Terminal reports whether every issued request has reached a terminal
// state (completed or dead-lettered) — the drain condition for chaos
// harnesses, and the "no lost requests" acceptance check.
func (m *Manager) Terminal() bool {
	for _, r := range m.reqs {
		if !r.Terminal() {
			return false
		}
	}
	return true
}

// Settled is the requeue-aware drain condition: every request is
// terminal *and* no resurrection decision is still in flight. Without
// requeue it degenerates to Terminal(); with it, a dead-lettered request
// awaiting its health check keeps the run unsettled so harnesses cannot
// stop before the resurrection fires.
func (m *Manager) Settled() bool { return m.pendingRequeues == 0 && m.Terminal() }

// DeadLettered returns the dead-lettered request count.
func (m *Manager) DeadLettered() uint64 { return m.cDead.Value() }

// Retried returns how many retry attempts were scheduled.
func (m *Manager) Retried() uint64 { return m.cRetried.Value() }

// Resurrected returns how many dead-lettered requests were pulled back.
func (m *Manager) Resurrected() uint64 { return m.cResurrected.Value() }
