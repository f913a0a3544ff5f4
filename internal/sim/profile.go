package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Profile collects the engine's self-observation counters: per-event-class
// dispatch counts, the event-heap depth high-water mark, and (optionally)
// wall-clock attribution per event class. Profiling is strictly opt-in —
// EnableProfile installs it — and the counters it keeps are themselves
// deterministic (they derive from the event stream alone), so a profiled
// run replays bit-for-bit identically to an unprofiled one.
//
// Wall-clock attribution is the one exception: sim is part of the
// deterministic core and must never read a wall clock, so the Clock field
// is an injected nanosecond source that only cmd/ front-ends (where wall
// time is legal) wire up. With Clock nil the engine never takes a
// timestamp and attribution stays empty.
type Profile struct {
	// Clock, when non-nil, supplies monotonic wall-clock nanoseconds for
	// per-class attribution. Leave nil inside deterministic code.
	Clock func() int64

	dispatch map[string]uint64
	wall     map[string]int64
	heapHWM  int
}

// NewProfile returns an empty profile ready to hand to EnableProfile.
func NewProfile() *Profile {
	return &Profile{
		dispatch: map[string]uint64{},
		wall:     map[string]int64{},
	}
}

// EnableProfile installs p as the engine's self-profiling sink. Passing
// nil disables profiling again.
func (e *Engine) EnableProfile(p *Profile) { e.prof = p }

// Profile returns the installed profile, or nil when profiling is off.
func (e *Engine) Profile() *Profile { return e.prof }

// className normalizes an event's debug label into a dispatch class.
// Unnamed events (plain Schedule calls) pool under "(anon)".
func className(name string) string {
	if name == "" {
		return "(anon)"
	}
	return name
}

// noteSchedule records queue growth when a slot is pushed; depth counts
// heap and lane slots alike.
func (p *Profile) noteSchedule(depth int) {
	if depth > p.heapHWM {
		p.heapHWM = depth
	}
}

// noteDispatch counts one event execution; wall is the attributed
// wall-clock nanoseconds (0 when no Clock is injected).
func (p *Profile) noteDispatch(name string, wall int64) {
	c := className(name)
	p.dispatch[c]++
	if wall != 0 {
		p.wall[c] += wall
	}
}

// HeapHighWater returns the most slots queued at once, on the heap and
// in lanes, since profiling started (Pending's count).
func (p *Profile) HeapHighWater() int { return p.heapHWM }

// DispatchClass is one row of the per-class dispatch breakdown.
type DispatchClass struct {
	Name  string
	Count uint64
	// WallNs is attributed wall-clock time; 0 unless a Clock was injected.
	WallNs int64
}

// Dispatch returns the per-class breakdown sorted by class name — the
// deterministic iteration order every renderer must use.
func (p *Profile) Dispatch() []DispatchClass {
	names := make([]string, 0, len(p.dispatch))
	for name := range p.dispatch {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]DispatchClass, 0, len(names))
	for _, name := range names {
		out = append(out, DispatchClass{Name: name, Count: p.dispatch[name], WallNs: p.wall[name]})
	}
	return out
}

// Describe renders the deterministic slice of the profile: dispatch
// counts and heap depth, never wall-clock attribution (which varies run
// to run and would poison byte-identical output surfaces like
// TaiChi.Describe).
func (p *Profile) Describe() string {
	var b strings.Builder
	var total uint64
	classes := p.Dispatch()
	for _, c := range classes {
		total += c.Count
	}
	fmt.Fprintf(&b, "sim-profile: dispatched=%d classes=%d heap-hwm=%d\n",
		total, len(classes), p.heapHWM)
	for _, c := range classes {
		fmt.Fprintf(&b, "sim-profile.dispatch: %s=%d\n", c.Name, c.Count)
	}
	return b.String()
}
