package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the goroutine count a fan-out over n independent items
// should use: min(n, GOMAXPROCS), never below 1.
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

// ForEach runs f(i) for every i in [0, n), fanning the calls out across
// at most GOMAXPROCS goroutines. Items are claimed dynamically from an
// atomic counter, so the assignment of items to workers is not
// deterministic — f must therefore communicate only through
// index-addressed slots (results[i] = ...), never by appending to a
// shared slice or accumulating into shared floats. Under that contract
// the outcome is bitwise-independent of GOMAXPROCS.
//
// With one worker (n == 1 or GOMAXPROCS == 1) f runs inline on the
// calling goroutine, so single-threaded runs pay no scheduling cost.
// ForEach returns after every f has returned.
func ForEach(n int, f func(i int)) {
	w := Workers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Chunks runs f(lo, hi) over at most Workers(n) contiguous chunks that
// partition [0, n), one goroutine per chunk, for loops whose workers keep
// scratch across their items (a per-worker stamp array, say). Chunk
// bounds depend on GOMAXPROCS, so f must follow ForEach's contract
// within each item. With one chunk f runs inline on the calling
// goroutine; n ≤ 0 runs nothing. Chunks returns after every f has
// returned.
func Chunks(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w == 1 {
		f(0, n)
		return
	}
	size := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, min(lo+size, n))
	}
	wg.Wait()
}
