package core

import "repro/internal/sim"

// The pieces the hysteretic ladders share: the degradation ladder's
// evidence windows (defense.go, recovery.go), the overload ladder's
// escalation window and both ladders' cooldown growth (overload.go).
// Each ladder keeps its own order of operations — recovery dwells on
// the current cooldown and then stretches it, overload stretches when it
// escalates — so only the arithmetic lives here.

// window counts event instants inside a sliding span ending now. An
// instant exactly span old still counts; eviction is strictly older.
type window struct {
	span  sim.Duration
	times []sim.Time
}

// add records an instant and returns the count inside the window.
func (w *window) add(now sim.Time) int {
	w.times = append(w.times, now)
	return w.count(now)
}

// count evicts instants older than the span and returns what remains.
func (w *window) count(now sim.Time) int {
	cutoff := now.Add(-w.span)
	for len(w.times) > 0 && w.times[0] < cutoff {
		w.times = w.times[1:]
	}
	return len(w.times)
}

// reset discards every recorded instant.
func (w *window) reset() { w.times = nil }

// stretch grows a cooldown by factor, capped at ceiling, so a flapping
// node settles on its rung instead of oscillating.
func stretch(d sim.Duration, factor float64, ceiling sim.Duration) sim.Duration {
	return min(sim.Duration(float64(d)*factor), ceiling)
}
