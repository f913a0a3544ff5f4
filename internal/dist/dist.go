// Package dist provides the probability distributions used by workload
// generators and task models: lognormal and empirical piecewise
// distributions, and a two-state Markov-modulated burst process. Each is
// calibrated against a published quantity: the lognormal's mean/p99
// parameterization fits the right-skewed calm-epoch utilization mix
// behind Figure 3 (30% fleet operating point, §6.2), the empirical
// piecewise distribution fits the Figure 5 non-preemptible-routine census
// (94.5% in 1–5 ms, max 67 ms), and the MMPP burst process reproduces the
// Figure 3 fleet utilization CDF (99.68% of samples below 32.5%).
//
// All samplers draw from an explicit *rand.Rand so that callers control
// determinism via named sim.RNG streams — a requirement for the
// byte-identical parallel fleet runs of internal/fleet.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Lognormal models right-skewed service times (e.g. CP user-space compute
// phases). Mu and Sigma parameterize the underlying normal in log-ns space.
type Lognormal struct {
	Mu, Sigma float64
}

// NewLognormalFromMeanP99 fits a lognormal with the given mean and p99,
// a convenient surface for calibrating to published quantiles. It panics
// if p99 <= mean (no lognormal exists); FitLognormalMeanP99 is the
// error-returning form for parameters that arrive from config.
func NewLognormalFromMeanP99(mean, p99 sim.Duration) Lognormal {
	l, err := FitLognormalMeanP99(mean, p99)
	if err != nil {
		panic(err.Error())
	}
	return l
}

// FitLognormalMeanP99 fits a lognormal with the given mean and p99,
// reporting invalid parameters (mean <= 0, or p99 <= mean — no lognormal
// exists) as an error instead of panicking.
func FitLognormalMeanP99(mean, p99 sim.Duration) (Lognormal, error) {
	if p99 <= mean || mean <= 0 {
		return Lognormal{}, fmt.Errorf("dist: invalid lognormal fit mean=%v p99=%v", mean, p99)
	}
	// mean = exp(mu + sigma^2/2); p99 = exp(mu + 2.326*sigma)
	// Solve sigma from: ln(p99) - ln(mean) = 2.326*sigma - sigma^2/2
	diff := math.Log(float64(p99)) - math.Log(float64(mean))
	const z = 2.326347
	// sigma^2/2 - z*sigma + diff = 0  =>  sigma = z - sqrt(z^2 - 2*diff)
	disc := z*z - 2*diff
	if disc < 0 {
		disc = 0
	}
	sigma := z - math.Sqrt(disc)
	if sigma <= 0 {
		sigma = 0.1
	}
	mu := math.Log(float64(mean)) - sigma*sigma/2
	return Lognormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws one duration, never below 1 ns.
func (l Lognormal) Sample(r *rand.Rand) sim.Duration {
	v := math.Exp(l.Mu + l.Sigma*r.NormFloat64())
	if v < 1 {
		v = 1
	}
	if v > math.MaxInt64/2 {
		v = math.MaxInt64 / 2
	}
	return sim.Duration(v)
}

// Mean returns the analytic mean.
func (l Lognormal) Mean() sim.Duration {
	return sim.Duration(math.Exp(l.Mu + l.Sigma*l.Sigma/2))
}

// Empirical is a piecewise (bucketed) distribution defined by weighted
// ranges. It is the workhorse for calibrating generators to published
// histograms such as Figure 5.
type Empirical struct {
	buckets []empiricalBucket
	cum     []float64
	total   float64
	mean    sim.Duration
}

type empiricalBucket struct {
	lo, hi sim.Duration
	weight float64
}

// Bucket is one weighted range of an Empirical distribution.
type Bucket struct {
	Lo, Hi sim.Duration
	Weight float64
}

// NewEmpirical builds a piecewise-uniform distribution from weighted
// buckets. Weights need not sum to 1. It panics on empty or invalid
// input; TryNewEmpirical is the error-returning form.
func NewEmpirical(buckets []Bucket) *Empirical {
	e, err := TryNewEmpirical(buckets)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// TryNewEmpirical builds a piecewise-uniform distribution from weighted
// buckets, reporting empty input, inverted ranges, negative weights, and
// zero total weight as errors instead of panicking.
func TryNewEmpirical(buckets []Bucket) (*Empirical, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("dist: empirical distribution needs at least one bucket")
	}
	e := &Empirical{}
	var meanAcc float64
	for _, b := range buckets {
		if b.Hi < b.Lo || b.Weight < 0 {
			return nil, fmt.Errorf("dist: invalid bucket %+v", b)
		}
		if b.Weight == 0 {
			continue
		}
		e.buckets = append(e.buckets, empiricalBucket{b.Lo, b.Hi, b.Weight})
		e.total += b.Weight
		e.cum = append(e.cum, e.total)
		meanAcc += b.Weight * float64(b.Lo+b.Hi) / 2
	}
	if e.total == 0 {
		return nil, fmt.Errorf("dist: empirical distribution has zero total weight")
	}
	e.mean = sim.Duration(meanAcc / e.total)
	return e, nil
}

// Sample draws one duration: pick a bucket by weight, then uniform within.
func (e *Empirical) Sample(r *rand.Rand) sim.Duration {
	u := r.Float64() * e.total
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.buckets) {
		i = len(e.buckets) - 1
	}
	b := e.buckets[i]
	return sim.Uniform(r, b.lo, b.hi)
}

// Mean returns the analytic mean, the weighted average of the bucket
// midpoints.
func (e *Empirical) Mean() sim.Duration { return e.mean }

// MMPP2 is a two-state Markov-modulated Poisson process: a "calm" state
// with low arrival rate and a "burst" state with high rate, with
// exponential state holding times. It reproduces the bursty, mostly-idle
// data-plane traffic that yields the paper's Figure 3 utilization CDF
// (99.68% of per-second utilization samples below 32.5%).
type MMPP2 struct {
	CalmInterarrival  sim.Duration // mean interarrival while calm
	BurstInterarrival sim.Duration // mean interarrival while bursting
	CalmHold          sim.Duration // mean dwell time in calm state
	BurstHold         sim.Duration // mean dwell time in burst state

	inBurst   bool
	stateEnds sim.Time
}

// Next returns the next interarrival gap, advancing the modulating chain.
// now is the current simulated time of the caller.
func (m *MMPP2) Next(r *rand.Rand, now sim.Time) sim.Duration {
	for now >= m.stateEnds {
		m.inBurst = !m.inBurst
		hold := m.CalmHold
		if m.inBurst {
			hold = m.BurstHold
		}
		m.stateEnds = m.stateEnds.Add(sim.Exponential(r, hold))
	}
	if m.inBurst {
		return sim.Exponential(r, m.BurstInterarrival)
	}
	return sim.Exponential(r, m.CalmInterarrival)
}
