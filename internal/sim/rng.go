package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random source. Each simulated component derives
// its own named stream from the experiment seed so that adding a component
// (or reordering draws within one component) does not perturb the draws
// seen by every other component — a standard trick for reproducible
// discrete-event simulation.
type RNG struct {
	seed int64
}

// NewRNG returns a root source for the given experiment seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// Stream derives an independent, deterministic sub-stream identified by
// name. The same (seed, name) pair always yields the same sequence, the
// one rand.New(rand.NewSource(sub)) yields, from a source that seeds
// without division (see source).
func (r *RNG) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	sub := int64(h.Sum64()) ^ (r.seed * int64(0x9E3779B97F4A7C15>>1))
	return rand.New(newSource(sub))
}

// Exponential draws from an exponential distribution with the given mean.
// It is provided here (rather than only in internal/dist) because arrival
// processes inside the engine's own tests need it.
func Exponential(r *rand.Rand, mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	d := Duration(float64(mean) * r.ExpFloat64())
	if d < 1 {
		d = 1
	}
	return d
}

// Uniform draws uniformly from [lo, hi].
func Uniform(r *rand.Rand, lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Int63n(int64(hi-lo)+1))
}

// Jitter returns d perturbed multiplicatively by up to ±frac (e.g. 0.1 for
// ±10%), never returning less than 1 ns.
func Jitter(r *rand.Rand, d Duration, frac float64) Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	f := 1 + frac*(2*r.Float64()-1)
	out := Duration(math.Round(float64(d) * f))
	if out < 1 {
		out = 1
	}
	return out
}
