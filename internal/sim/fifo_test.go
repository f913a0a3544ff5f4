package sim

import "testing"

// FIFO pops in push order while its ring wraps and doubles, against a
// slice as the reference.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	var ref []int
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%23; i++ {
			q.Push(next)
			ref = append(ref, next)
			next++
		}
		for i := 0; i < round%19 && len(ref) > 0; i++ {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("round %d: popped %d, want %d", round, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("round %d: Len %d, want %d", round, q.Len(), len(ref))
		}
	}
	if len(q.ring) <= 16 {
		t.Fatalf("ring never grew past %d", len(q.ring))
	}
}
