// Package fixture is type-checked as repro/internal/experiments: a model
// layer outside the core, where the goroutine analyzer bans locks but
// leaves WaitGroup alone.
package fixture

import "sync"

var wg sync.WaitGroup

func guard() *sync.Mutex { // want `sync\.Mutex outside internal/fleet`
	wg.Wait()
	return &sync.Mutex{} // want `sync\.Mutex outside internal/fleet`
}
