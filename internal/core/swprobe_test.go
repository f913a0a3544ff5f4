package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSWProbeDefaults(t *testing.T) {
	p := NewSWProbe(true)
	if got := p.Threshold(0); got != 200 {
		t.Fatalf("initial threshold %d", got)
	}
	if w := p.IdleWindow(0, 100*sim.Nanosecond); w != 20*sim.Microsecond {
		t.Fatalf("idle window %v", w)
	}
}

func TestSWProbeAdaptation(t *testing.T) {
	p := NewSWProbe(true)
	p.SustainedIdle(3)
	if got := p.Threshold(3); got != 100 {
		t.Fatalf("after sustained idle: %d, want 100", got)
	}
	p.FalsePositive(3)
	p.FalsePositive(3)
	if got := p.Threshold(3); got != 400 {
		t.Fatalf("after two false positives: %d, want 400", got)
	}
	// Other cores are unaffected.
	if got := p.Threshold(5); got != 200 {
		t.Fatalf("core 5 threshold %d", got)
	}
}

func TestSWProbeClamping(t *testing.T) {
	p := NewSWProbe(true)
	for i := 0; i < 20; i++ {
		p.SustainedIdle(0)
	}
	if got := p.Threshold(0); got != minYieldThreshold {
		t.Fatalf("floor: %d, want %d", got, minYieldThreshold)
	}
	for i := 0; i < 20; i++ {
		p.FalsePositive(0)
	}
	if got := p.Threshold(0); got != maxYieldThreshold {
		t.Fatalf("ceiling: %d, want %d", got, maxYieldThreshold)
	}
}

func TestSWProbeNonAdaptive(t *testing.T) {
	p := NewSWProbe(false)
	p.SustainedIdle(0)
	p.FalsePositive(0)
	if got := p.Threshold(0); got != initialYieldThreshold {
		t.Fatalf("non-adaptive threshold moved to %d", got)
	}
	if p.Raises != 0 || p.Drops != 0 {
		t.Fatal("non-adaptive probe counted adaptations")
	}
}

// Property: the threshold always stays within [Min, Max] under arbitrary
// event sequences.
func TestPropertySWProbeBounds(t *testing.T) {
	f := func(events []bool) bool {
		p := NewSWProbe(true)
		for _, fp := range events {
			if fp {
				p.FalsePositive(1)
			} else {
				p.SustainedIdle(1)
			}
			th := p.Threshold(1)
			if th < minYieldThreshold || th > maxYieldThreshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
