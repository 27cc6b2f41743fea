package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the fan-out ParallelFor uses for n items: one worker
// per CPU, never more than n, at least 1. Callers use it to size
// per-worker scratch.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelFor runs fn(worker, i) for every i in [0, n), fanning the items
// out over the given number of goroutines via an atomic work-stealing
// counter. worker is the goroutine's index in [0, workers) so callers can
// keep per-worker scratch (a pooled matrix) without locking; pass the same
// Workers(n) value used to size that scratch.
// With a single worker the items run inline on the calling goroutine.
// fn is responsible for recording its own errors (e.g. into a per-worker
// or per-item slot); ParallelFor returns after all items complete.
func ParallelFor(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
