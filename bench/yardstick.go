package main

import (
	"container/heap"
	"crypto/sha256"
	"runtime"
	"strconv"
	"sync"
)

// The host this benchmark was built on changes speed by itself, by 15–50%
// over minutes (README.md, Host noise), which no rep length averages out.
// So every rep also times a yardstick: fixed work written here, sharing no
// code with the simulator, whose time follows the host's speed and nothing
// else. The end-to-end timings are scaled by it to the reference host's
// speed (yardstickRefS).
//
// A slice of the yardstick has two halves, because the host's slow phases
// slow different kinds of work by different amounts: allocating code that
// runs the collector slows most, compute on memory already in use least,
// and the simulator lies between them. One half is a discrete-event loop
// whose events do the simulator's kinds of work (pop a heap of closures,
// allocate, look up a map, append a trace record and format it as JSON);
// the other hashes one buffer over and over.

// yardstickEvents and yardstickHashes size the two halves of a slice: 11 to
// 15 ms each on the reference host.
const (
	yardstickEvents = 10_000
	yardstickHashes = 200
)

// repSlices is how many yardstick slices a rep times. A rep's yardstick
// time is their median, so a burst that slows one slice does not move it.
const repSlices = 12

// yardstickRefS is the median slice time on the reference host (a 2-vCPU
// VM, Go 1.24) over forty runs of the benchmark, indexed by the number of
// slices run at once. Scaling a rep's timings by yardstickRefS over its own
// slice time gives them in reference-host seconds at that median speed.
var yardstickRefS = [...]float64{1: 0.0264, 2: 0.0297}

// yardstickScale is the factor that turns a rep's host seconds into
// reference-host seconds, given its median slice time and how many slices
// ran at once.
func yardstickScale(sliceS float64, parallel int) float64 {
	if sliceS <= 0 || parallel < 1 || parallel >= len(yardstickRefS) {
		return 0
	}
	return yardstickRefS[parallel] / sliceS
}

// timeSlice collects the heap untimed, then runs parallel slices at once
// and returns their host seconds. A workload whose engines advance on two
// cores is scaled by a yardstick that busies two.
func timeSlice(parallel int) float64 {
	runtime.GC()
	sums := make([]int, parallel)
	start := clock()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = yardstickLoop(uint64(i)+1) + yardstickHash()
		}()
	}
	wg.Wait()
	elapsed := clock() - start
	for _, s := range sums {
		yardstickSink += s
	}
	return float64(elapsed) / 1e9
}

// yardstickSink keeps the slices' results alive so that the compiler cannot
// drop their work.
var yardstickSink int

// yardstickHash hashes a 64 KiB buffer yardstickHashes times, feeding each
// digest back into it, and returns a byte of the last digest.
func yardstickHash() int {
	var buf [64 << 10]byte
	var sum [sha256.Size]byte
	for i := range yardstickHashes {
		sum = sha256.Sum256(buf[:])
		copy(buf[i*sha256.Size%len(buf):], sum[:])
	}
	return int(sum[0])
}

type ysEvent struct {
	when, seq int64
	fn        func()
}

type ysQueue []*ysEvent

func (q ysQueue) Len() int { return len(q) }
func (q ysQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q ysQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *ysQueue) Push(x any)   { *q = append(*q, x.(*ysEvent)) }
func (q *ysQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

type ysRecord struct {
	id, when int64
	prev     *ysRecord
	tags     []int64
}

// yardstickLoop runs yardstickEvents events of a fixed pseudo-random
// schedule and returns a checksum of what they did.
func yardstickLoop(seed uint64) int {
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func(n int64) int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(n))
	}
	var (
		q     ysQueue
		now   int64
		seq   int64
		fired int
		trace []ysRecord
		out   []byte
	)
	last := make(map[int64]*ysRecord, 1024)
	var schedule func(delay int64)
	schedule = func(delay int64) {
		seq++
		heap.Push(&q, &ysEvent{when: now + delay, seq: seq, fn: func() {
			fired++
			key := next(4096)
			r := &ysRecord{id: int64(fired), when: now, prev: last[key], tags: make([]int64, 1+next(4))}
			last[key] = r
			trace = append(trace, *r)
			out = append(out, `{"name":"ev","ts":`...)
			out = strconv.AppendFloat(out, float64(now)/1e3, 'f', 3, 64)
			out = append(out, `,"id":`...)
			out = strconv.AppendInt(out, r.id, 10)
			out = append(out, "},\n"...)
			if seq < yardstickEvents {
				schedule(1 + next(1000))
				if fired%3 == 0 {
					schedule(1 + next(5000))
				}
			}
		}})
	}
	for i := 0; i < 64; i++ {
		schedule(next(1000))
	}
	for q.Len() > 0 {
		e := heap.Pop(&q).(*ysEvent)
		now = e.when
		e.fn()
	}
	return fired + len(trace) + len(out) + len(last)
}
