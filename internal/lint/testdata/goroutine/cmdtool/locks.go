// Package fixture exercises the goroutine analyzer's lock ban outside
// the core (type-checked as repro/cmd/tool): mutexes and sync/atomic
// are flagged, WaitGroup and Once are not, and a directive excuses one
// lock.
package fixture

import (
	"sync"
	"sync/atomic" // want `import of sync/atomic outside internal/fleet`
)

type counter struct {
	mu sync.Mutex // want `sync\.Mutex outside internal/fleet`
	n  atomic.Int64
}

type guarded struct {
	sync.Mutex // want `sync\.Mutex outside internal/fleet`
	v          int
}

var table sync.RWMutex // want `sync\.RWMutex outside internal/fleet`

var (
	once sync.Once
	wg   sync.WaitGroup
)

//taichi:allow goroutine — fixture: an excused lock stays silent
var excused sync.Mutex

func use(c *counter, g *guarded) {
	once.Do(func() {})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.n.Add(1)
	}()
	wg.Wait()
	excused.Lock()
	excused.Unlock()
	g.Lock()
	g.v++
	g.Unlock()
}
