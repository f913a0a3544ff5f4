package workload

import (
	"math/rand"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// clients is the closed loop every app model runs. It starts the model's
// connections (threads, jobs) at staggered instants, holds each request
// back while the model's Phaser is off, and renews none after Stop. The
// model supplies step, which does its own work at each stage of a
// request (see client).
type clients struct {
	node  *platform.Node
	r     *rand.Rand
	label string // every event the model schedules: "workload.<model>"
	phase *Phaser
	step  func(c *client)

	startedAt sim.Time
	stopped   bool
}

// start launches perFlow clients on each of flows flows, each issuing its
// first request after a uniform delay in (0, spread].
func (cs *clients) start(flows, perFlow int, spread sim.Duration) {
	cs.startedAt = cs.node.Now()
	for f := 0; f < flows; f++ {
		for range perFlow {
			cs.node.Engine.ScheduleNamed(sim.Duration(cs.r.Int63n(int64(spread))+1), cs.label, cs.add(f).issueFn)
		}
	}
}

// add builds a client on flow with its callbacks bound.
func (cs *clients) add(flow int) *client {
	c := &client{cs: cs, flow: flow}
	c.issueFn, c.resumeFn, c.doneFn = c.issue, c.resume, c.done
	return c
}

// Stop freezes the model: requests in flight finish, and none is renewed.
func (cs *clients) Stop() { cs.stopped = true }

// rate returns the counter's events per second since the model started.
func (cs *clients) rate(counter *metrics.Counter, now sim.Time) float64 {
	return counter.RatePerSecond(now.Sub(cs.startedAt))
}

// client is one connection, thread or job: one request in flight at a
// time. A request is a sequence of steps: the model's step runs when the
// request starts, with stage 0, and again, with stage one higher, each
// time one of its passes or waits completes. Every callback a request
// hands the engine or the pipeline was bound when the client was built,
// so a request allocates nothing.
type client struct {
	cs    *clients
	flow  int
	stage int
	start sim.Time // when the request started
	at    sim.Time // when its last pass or wait completed

	issueFn, resumeFn func()
	doneFn            func(*accel.Packet, sim.Time)
}

// issue starts the client's next request, unless the model stopped;
// while the Phaser is off, the request waits for its next on edge.
func (c *client) issue() {
	cs := c.cs
	if cs.stopped {
		return
	}
	if !cs.phase.On() {
		cs.phase.Do(c.issueFn)
		return
	}
	c.start, c.stage = cs.node.Now(), 0
	cs.step(c)
}

// net sends one pass of the given DP work through the network service.
func (c *client) net(work sim.Duration) { c.cs.node.InjectNet(c.flow, work, c.doneFn) }

// stor sends one command of the given DP work through the storage service.
func (c *client) stor(work sim.Duration) { c.cs.node.InjectStor(c.flow, work, c.doneFn) }

// inject sends a packet the model built itself through the accelerator.
func (c *client) inject(p *accel.Packet) {
	p.Done = c.doneFn
	c.cs.node.Pipe.Inject(p)
}

// wait resumes the request after d.
func (c *client) wait(d sim.Duration) { c.cs.node.Engine.ScheduleNamed(d, c.cs.label, c.resumeFn) }

// done ends a pass (it is the packets' Done callback); resume ends a wait.
func (c *client) done(_ *accel.Packet, at sim.Time) {
	c.at = at
	c.stage++
	c.cs.step(c)
}

func (c *client) resume() { c.done(nil, c.cs.node.Now()) }
