package workload

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestNilPhaserRunsEverything(t *testing.T) {
	var p *Phaser
	if !p.On() {
		t.Fatal("nil phaser must report on")
	}
	ran := false
	p.Do(func() { ran = true })
	if !ran {
		t.Fatal("nil phaser must run immediately")
	}
}

func TestPhaserTogglesAndReleasesWaiters(t *testing.T) {
	e := sim.NewEngine()
	r := rand.New(rand.NewSource(1))
	p := NewPhaser(e, r, 700*sim.Microsecond, 300*sim.Microsecond)
	if !p.On() {
		t.Fatal("phaser starts on")
	}
	// Advance into the off phase (on phase lasts 560-840µs with jitter).
	e.Run(sim.Time(900 * sim.Microsecond))
	if p.On() {
		t.Fatal("phaser should be off after the on dwell")
	}
	ran := false
	var ranAt sim.Time
	p.Do(func() { ran, ranAt = true, e.Now() })
	if ran {
		t.Fatal("Do during off phase must defer")
	}
	e.Run(sim.Time(2 * sim.Millisecond))
	if !ran {
		t.Fatal("waiter not released at the on edge")
	}
	if ranAt <= sim.Time(900*sim.Microsecond) {
		t.Fatalf("waiter ran at %v, inside the off phase", ranAt)
	}
}

func TestPhaserDutyCycleRoughlyCorrect(t *testing.T) {
	e := sim.NewEngine()
	r := rand.New(rand.NewSource(2))
	p := NewPhaser(e, r, 700*sim.Microsecond, 300*sim.Microsecond)
	onTime := 0
	total := 0
	e.NewTimer(10*sim.Microsecond, "", func() {
		total++
		if p.On() {
			onTime++
		}
	}).Reset(10 * sim.Microsecond)
	e.Run(sim.Time(200 * sim.Millisecond))
	duty := float64(onTime) / float64(total)
	if duty < 0.6 || duty > 0.8 {
		t.Fatalf("duty cycle %.3f, want ~0.7", duty)
	}
}

func TestPhasedStreamThroughputScalesWithDuty(t *testing.T) {
	run := func(phased bool) float64 {
		node := staticNode(20)
		cfg := DefaultStream()
		if phased {
			cfg.Phase = NewPhaser(node.Engine, node.Stream("ph"), 700*sim.Microsecond, 300*sim.Microsecond)
		}
		s := NewStream(node, cfg)
		s.Start()
		node.Run(sim.Time(200 * sim.Millisecond))
		return s.PPS(node.Now())
	}
	full := run(false)
	phased := run(true)
	ratio := phased / full
	if ratio < 0.6 || ratio > 0.85 {
		t.Fatalf("phased/full throughput %.3f, want ~0.7 (the duty cycle)", ratio)
	}
}
