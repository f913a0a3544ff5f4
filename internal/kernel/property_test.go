package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Property: for arbitrary mixes of segment programs across arbitrary CPU
// counts, every thread completes, is charged exactly the CPU time its
// compute segments demand, and no spinlock leaks.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nCPU := 1 + r.Intn(4)
		e := sim.NewEngine()
		k := New(e, trace.New(0))
		for i := 0; i < nCPU; i++ {
			k.AddCPU(CPUID(i), false)
		}
		lock := NewSpinLock("shared")
		nThreads := 1 + r.Intn(6)
		want := make([]sim.Duration, nThreads)
		threads := make([]*Thread, nThreads)
		for i := 0; i < nThreads; i++ {
			var segs []Segment
			var cpuWork sim.Duration
			for s := 0; s < 1+r.Intn(5); s++ {
				d := sim.Duration(1+r.Intn(3000)) * sim.Microsecond
				switch r.Intn(5) {
				case 0:
					segs = append(segs, Segment{Kind: SegCompute, Dur: d})
					cpuWork += d
				case 1:
					segs = append(segs, Segment{Kind: SegSyscall, Dur: d})
					cpuWork += d
				case 2:
					segs = append(segs, Segment{Kind: SegNonPreempt, Dur: d})
					cpuWork += d
				case 3:
					segs = append(segs, Segment{Kind: SegLock, Lock: lock, Dur: d})
					cpuWork += d // spin time comes on top; checked as >=
				case 4:
					segs = append(segs, Segment{Kind: SegSleep, Dur: d})
				}
			}
			want[i] = cpuWork
			threads[i] = k.Spawn("t", &SliceProgram{Segments: segs})
		}
		e.Run(sim.Time(10 * sim.Second))
		for i, th := range threads {
			if th.State() != StateDone {
				return false
			}
			if th.CPUTime < want[i] {
				return false // lost work
			}
		}
		return !lock.Locked() && lock.Waiters() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: random freeze/thaw cycles on a vCPU never lose or duplicate
// work — total charged CPU time equals the program's demand exactly.
func TestPropertyFreezeThawConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		k := New(e, trace.New(0))
		vc := k.AddCPU(0, true)
		vc.SetOnline(true)

		var want sim.Duration
		var segs []Segment
		for s := 0; s < 2+r.Intn(4); s++ {
			d := sim.Duration(100+r.Intn(5000)) * sim.Microsecond
			kind := []SegKind{SegCompute, SegSyscall, SegNonPreempt}[r.Intn(3)]
			segs = append(segs, Segment{Kind: kind, Dur: d})
			want += d
		}
		th := k.Spawn("guest", &SliceProgram{Segments: segs})

		vc.PowerOn()
		// Random freeze/thaw schedule.
		at := sim.Time(0)
		for i := 0; i < 20; i++ {
			at = at.Add(sim.Duration(1+r.Intn(2000)) * sim.Microsecond)
			off := at
			e.At(off, func() { vc.PowerOff() })
			at = at.Add(sim.Duration(1+r.Intn(2000)) * sim.Microsecond)
			on := at
			e.At(on, func() { vc.PowerOn() })
		}
		e.Run(sim.Time(sim.Minute))
		return th.State() == StateDone && th.CPUTime == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: at most one thread occupies a CPU, and a thread occupies at
// most one CPU, at every scheduling instant.
func TestPropertySingleOccupancy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		k := New(e, trace.New(0))
		n := 2 + r.Intn(3)
		for i := 0; i < n; i++ {
			k.AddCPU(CPUID(i), false)
		}
		for i := 0; i < 3+r.Intn(5); i++ {
			var segs []Segment
			for s := 0; s < 3; s++ {
				segs = append(segs, Segment{Kind: SegCompute, Dur: sim.Duration(1+r.Intn(4000)) * sim.Microsecond})
			}
			k.Spawn("t", &SliceProgram{Segments: segs})
		}
		ok := true
		tick := e.NewTimer(100*sim.Microsecond, "", func() {
			seen := map[*Thread]int{}
			for _, c := range k.CPUs() {
				if th := c.Current(); th != nil {
					seen[th]++
					if seen[th] > 1 {
						ok = false
					}
				}
			}
		})
		tick.Reset(100 * sim.Microsecond)
		e.Run(sim.Time(100 * sim.Millisecond))
		tick.Stop()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
