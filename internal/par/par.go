// Package par is a bounded worker pool: internal/facet fans per-property
// transition-marker counting across it. (The SPARQL engine runs each query
// on the goroutine that calls it.) Tasks are indexed, so callers write
// results into per-index slots and assemble them in order — parallel
// execution never changes output order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: n <= 0 means GOMAXPROCS, anything
// else is taken as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs fn(i) for every i in [0, n), using up to `workers` goroutines.
// With workers <= 1 (or n <= 1) it runs inline on the calling goroutine —
// the sequential ablation path costs nothing. fn must be safe for
// concurrent invocation on distinct indices.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
