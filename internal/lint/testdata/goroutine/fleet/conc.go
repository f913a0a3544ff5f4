// Package fixture holds the same constructs as the core fixture but is
// type-checked as repro/internal/fleet, where host concurrency is the
// point: the analyzer must stay silent (no want comments anywhere),
// locks and sync/atomic included.
package fixture

import (
	"sync"
	"sync/atomic"
)

func fanOut(n int, run func(int)) int64 {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done atomic.Int64
	)
	results := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
			mu.Lock()
			results <- i
			mu.Unlock()
			done.Add(1)
		}(i)
	}
	wg.Wait()
	return done.Load()
}
