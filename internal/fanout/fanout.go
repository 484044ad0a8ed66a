// Package fanout runs independent, indexed pieces of work on a bounded set of
// goroutines. It is the only place non-test code in this module starts
// goroutines.
//
// Callers keep results independent of scheduling with one idiom (the
// "Parallel work" rule in docs/determinism.md): inputs are fixed per index
// before the call, each call writes only its own index's output slot, and
// anything order-sensitive is folded after For returns, in index order.
package fanout

import (
	"sync"
	"sync/atomic"
)

// For calls fn(w, i) exactly once for every i in [0, n) and returns when all
// calls have returned. The calls run on min(workers, n) goroutines, which
// take indices in increasing order from a shared counter, so the indices one
// goroutine sees increase. w in [0, min(workers, n)) names the goroutine
// making the call, letting callers keep per-worker scratch. With at most one
// goroutine (workers ≤ 1 or n ≤ 1) the calls run on the caller's goroutine,
// in index order, with w = 0.
func For(n, workers int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
