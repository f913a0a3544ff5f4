package sim

import (
	"math"
	"math/rand"
	"testing"
)

// sourceEdgeSeeds are the seeds where the reduction mod 2³¹−1 is most
// likely to go wrong: zero (and the multiples of the modulus that reduce
// to it, which math/rand maps to 89482311), the values either side of a
// multiple, the sign boundary and the int64 extremes.
var sourceEdgeSeeds = []int64{
	0, 1, -1, 2, -2,
	int32max, -int32max, int32max - 1, int32max + 1, -int32max + 1, -int32max - 1,
	2 * int32max, -2 * int32max, 1 << 31, -1 << 31, 1 << 62 / int32max * int32max,
	89482311, -89482311,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// sourceSeeds returns the edge seeds and n more drawn from every magnitude.
func sourceSeeds(n int) []int64 {
	seeds := append([]int64(nil), sourceEdgeSeeds...)
	r := rand.New(rand.NewSource(7))
	for range n {
		seeds = append(seeds, int64(r.Uint64())>>r.Intn(64))
	}
	return seeds
}

// The division-free source is math/rand's, bit for bit: for the edge
// seeds and 2,000 drawn ones, 2,000 Uint64 draws each (past the 607-word
// wrap) match rand.NewSource's, and on a subset every *rand.Rand method
// the simulator's streams offer, and a Seed in the middle of a stream,
// returns what math/rand's own source makes it return.
func TestStreamSourceMatchesMathRand(t *testing.T) {
	seeds := sourceSeeds(2000)
	for _, seed := range seeds {
		got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := range 2000 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d is %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
	for _, seed := range seeds[:len(sourceEdgeSeeds)+50] {
		got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for round := range 3 {
			if g, w := drawAll(got), drawAll(want); g != w {
				t.Fatalf("seed %d, round %d: *rand.Rand methods drew\n%v\nmath/rand\n%v", seed, round, g, w)
			}
			reseed := seed ^ int64(round+1)*0x5DEECE66D
			got.Seed(reseed)
			want.Seed(reseed)
		}
	}
}

// methodDraws is one pass over the *rand.Rand methods.
type methodDraws struct {
	u64            uint64
	u32            uint32
	i63, i63n      int64
	i31, i31n      int32
	i, in          int
	f64, exp, norm float64
	f32            float32
	perm, shuffled [12]int
	read           [13]byte
}

func drawAll(r *rand.Rand) methodDraws {
	var d methodDraws
	d.u64, d.u32 = r.Uint64(), r.Uint32()
	d.i63, d.i63n = r.Int63(), r.Int63n(1e12+7)
	d.i31, d.i31n = r.Int31(), r.Int31n(1000)
	d.i, d.in = r.Int(), r.Intn(1<<40+3)
	d.f64, d.exp, d.norm, d.f32 = r.Float64(), r.ExpFloat64(), r.NormFloat64(), r.Float32()
	copy(d.perm[:], r.Perm(len(d.perm)))
	for i := range d.shuffled {
		d.shuffled[i] = i
	}
	r.Shuffle(len(d.shuffled), func(i, j int) { d.shuffled[i], d.shuffled[j] = d.shuffled[j], d.shuffled[i] })
	r.Read(d.read[:5]) // leaves read bytes of a partly used draw
	r.Read(d.read[5:])
	return d
}

// FuzzStreamSource checks n draws of the source seeded with seed against
// math/rand's, alternating Uint64 and Int63. The seed corpus is the edge
// seeds, under testdata/fuzz/FuzzStreamSource.
func FuzzStreamSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := range int(n) {
			var g, w uint64
			if i%2 == 0 {
				g, w = got.Uint64(), want.Uint64()
			} else {
				g, w = uint64(got.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d: draw %d is %#x, math/rand %#x", seed, i, g, w)
			}
		}
	})
}

// BenchmarkStream times seeding a source and drawing from a stream, each
// against math/rand's own source.
func BenchmarkStream(b *testing.B) {
	b.Run("seed", func(b *testing.B) {
		s := new(source)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("seed-mathrand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("draw", func(b *testing.B) {
		benchDraw(b, rand.New(newSource(1)))
	})
	b.Run("draw-mathrand", func(b *testing.B) {
		benchDraw(b, rand.New(rand.NewSource(1)))
	})
}

func benchDraw(b *testing.B, r *rand.Rand) {
	var sink uint64
	for range b.N {
		sink += r.Uint64() ^ uint64(r.Int63())
	}
	if sink == 1 {
		b.Log(sink)
	}
}
