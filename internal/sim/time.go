// Package sim provides the deterministic discrete-event simulation engine
// that underpins every substrate in this repository. The engine models
// simulated time at nanosecond resolution, completely decoupled from
// wall-clock time, which is what lets a Go program reproduce the
// microsecond-scale scheduling behaviour of a SmartNIC SoC exactly: a
// "2 µs VM-exit" is two thousand simulated nanoseconds, not a best-effort
// sleep on a garbage-collected runtime.
//
// The resolution is dictated by the paper's numbers: the 2 µs VM-exit of
// §3.4, the 2.7 µs + 0.5 µs accelerator window of Figure 6, and the 50 µs
// initial vCPU time slice of §4.1 all have to be representable exactly.
//
// The engine is intentionally single-threaded. Determinism (same seed, same
// event order, same results) is a hard requirement for the experiment
// harnesses in internal/experiments, and a single goroutine draining a
// priority queue is both the simplest and the fastest way to get it.
// Parallelism lives one level up: independent engines (one per fleet
// member) run concurrently on the internal/fleet worker pool, each one
// still single-threaded inside.
//
// The event queue is a typed 4-ary min-heap keyed inline by (when, seq),
// a total order, so dispatch order is fully determined by the schedule
// calls. A source whose events all wait the same fixed delay can use a
// Lane instead, a FIFO that is already in (when, seq) order and competes
// with the heap only at its head; the dispatch order is unchanged. The
// engine allocates nothing per event in steady state: a fired or
// discarded event is recycled for the next Schedule, and callers hold a
// Handle whose generation check makes Cancel on a fired (and possibly
// reused) event a no-op. Every re-armed event (a time slice, a
// countdown, a deadline, a periodic tick) is a Timer, which binds its
// callback once and owns at most one heap slot: a Reset moves that slot
// lazily instead of cancelling it, and a firing leaves it in place for
// the re-arm, in the order a Cancel plus a ScheduleNamed would give.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is a distinct type from time.Duration to prevent
// accidentally mixing simulated and wall-clock time.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package but in simulated units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Microseconds returns the time as a float count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a float count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats a simulated timestamp with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Microseconds returns the duration as a float count of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds returns the duration as a float count of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns the duration as a float count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit, e.g. "2µs" or "1.5ms".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return trimZero(float64(d)/float64(Microsecond), "µs")
	case d < Second:
		return trimZero(float64(d)/float64(Millisecond), "ms")
	default:
		return trimZero(float64(d)/float64(Second), "s")
	}
}

func trimZero(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros and a dangling decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}
