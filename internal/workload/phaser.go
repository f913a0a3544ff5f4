package workload

import (
	"math/rand"

	"repro/internal/sim"
)

// Phaser gates a closed-loop workload into on/off bursts, reproducing the
// duty-cycled arrival pattern of production traffic (requests arrive in
// trains with sub-millisecond quiet gaps between them). The quiet gaps
// are what let Tai Chi's software probe detect idleness and lend the core
// out — and what make the paper's §6.5 cache/TLB-pollution overhead
// (0.5-2%) observable at all: under gapless saturation no yield ever
// happens and Tai Chi measures identical to the baseline.
type Phaser struct {
	r       *rand.Rand
	on, off sim.Duration
	isOn    bool
	waiters []func()
	edge    *sim.Timer // ends the current phase
}

// NewPhaser starts a phaser with the given on/off dwell times (±20%
// jitter per phase). It begins in the on phase.
func NewPhaser(engine *sim.Engine, r *rand.Rand, on, off sim.Duration) *Phaser {
	p := &Phaser{r: r, on: on, off: off, isOn: true}
	p.edge = engine.NewTimer(0, "workload.phaser", p.flip)
	p.schedule()
	return p
}

func (p *Phaser) schedule() {
	d := p.on
	if !p.isOn {
		d = p.off
	}
	p.edge.Reset(sim.Jitter(p.r, d, 0.2))
}

// flip ends the current phase. An on edge releases the waiters in the
// order they queued; none can queue while the phase is on, so their
// slice is drained in place and reused.
func (p *Phaser) flip() {
	p.isOn = !p.isOn
	if p.isOn {
		for _, w := range p.waiters {
			w()
		}
		clear(p.waiters)
		p.waiters = p.waiters[:0]
	}
	p.schedule()
}

// On reports whether the workload may issue right now.
func (p *Phaser) On() bool { return p == nil || p.isOn }

// Do runs fn immediately during an on phase, or defers it to the next
// on edge. A nil Phaser runs everything immediately (no gating).
func (p *Phaser) Do(fn func()) {
	if p == nil || p.isOn {
		fn()
		return
	}
	p.waiters = append(p.waiters, fn)
}
