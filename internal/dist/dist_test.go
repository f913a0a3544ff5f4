package dist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLognormalFitMeanP99(t *testing.T) {
	mean := 2 * sim.Millisecond
	p99 := 20 * sim.Millisecond
	l := NewLognormalFromMeanP99(mean, p99)

	r := rand.New(rand.NewSource(4))
	const n = 200000
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		samples[i] = float64(l.Sample(r))
		sum += samples[i]
	}
	gotMean := sum / n
	if gotMean < 0.9*float64(mean) || gotMean > 1.1*float64(mean) {
		t.Fatalf("fitted mean %.0f, want ~%d", gotMean, mean)
	}
	// Check p99 within a factor-ish tolerance (fit is approximate).
	exceed := 0
	for _, s := range samples {
		if s > float64(p99) {
			exceed++
		}
	}
	frac := float64(exceed) / n
	if frac < 0.003 || frac > 0.03 {
		t.Fatalf("fraction above fitted p99 = %.4f, want ~0.01", frac)
	}
}

func TestLognormalFitPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p99 <= mean")
		}
	}()
	NewLognormalFromMeanP99(10, 5)
}

func TestEmpiricalRespectsBuckets(t *testing.T) {
	e := NewEmpirical([]Bucket{
		{Lo: sim.Millisecond, Hi: 5 * sim.Millisecond, Weight: 94.5},
		{Lo: 5 * sim.Millisecond, Hi: 10 * sim.Millisecond, Weight: 4},
		{Lo: 10 * sim.Millisecond, Hi: 67 * sim.Millisecond, Weight: 1.5},
	})
	r := rand.New(rand.NewSource(7))
	counts := [3]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		v := e.Sample(r)
		switch {
		case v <= 5*sim.Millisecond:
			counts[0]++
		case v <= 10*sim.Millisecond:
			counts[1]++
		default:
			counts[2]++
		}
		if v < sim.Millisecond || v > 67*sim.Millisecond {
			t.Fatalf("sample %v outside overall support", v)
		}
	}
	frac0 := float64(counts[0]) / n
	if frac0 < 0.93 || frac0 > 0.96 {
		t.Fatalf("bucket0 fraction %.4f, want ~0.945", frac0)
	}
}

func TestEmpiricalPanics(t *testing.T) {
	for _, bad := range [][]Bucket{
		nil,
		{{Lo: 10, Hi: 5, Weight: 1}},
		{{Lo: 1, Hi: 2, Weight: 0}},
	} {
		func() {
			defer func() { recover() }()
			NewEmpirical(bad)
			t.Fatalf("NewEmpirical(%v) did not panic", bad)
		}()
	}
}

func TestMMPP2ProducesBursts(t *testing.T) {
	m := &MMPP2{
		CalmInterarrival:  100 * sim.Microsecond,
		BurstInterarrival: 2 * sim.Microsecond,
		CalmHold:          10 * sim.Millisecond,
		BurstHold:         1 * sim.Millisecond,
	}
	r := rand.New(rand.NewSource(8))
	var now sim.Time
	short, long := 0, 0
	for i := 0; i < 100000; i++ {
		gap := m.Next(r, now)
		now = now.Add(gap)
		if gap < 20*sim.Microsecond {
			short++
		} else {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("MMPP2 not modulating: short=%d long=%d", short, long)
	}
}

// Property: every sampler returns non-negative durations for arbitrary
// seeds.
func TestPropertySamplersNonNegative(t *testing.T) {
	samplers := []interface {
		Sample(*rand.Rand) sim.Duration
	}{
		NewLognormalFromMeanP99(sim.Millisecond, 10*sim.Millisecond),
		NewEmpirical([]Bucket{{Lo: 0, Hi: 10, Weight: 1}}),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, s := range samplers {
			for i := 0; i < 32; i++ {
				if s.Sample(r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticMeans(t *testing.T) {
	l := NewLognormalFromMeanP99(sim.Millisecond, 10*sim.Millisecond)
	if m := l.Mean(); m < sim.Duration(float64(sim.Millisecond)*0.9) || m > sim.Duration(float64(sim.Millisecond)*1.1) {
		t.Fatalf("Lognormal.Mean = %v, want ~1ms", m)
	}
	e := NewEmpirical([]Bucket{{Lo: 0, Hi: 10, Weight: 1}})
	if e.Mean() != 5 {
		t.Fatalf("Empirical.Mean = %v", e.Mean())
	}
}
