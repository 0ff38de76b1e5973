package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		hits := make([]atomic.Int32, n)
		ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, got)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	limit := int32(runtime.GOMAXPROCS(0))
	var cur, peak atomic.Int32
	ForEach(256, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > limit {
		t.Fatalf("observed %d concurrent calls, limit %d", p, limit)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d, want 1", w)
	}
	max := runtime.GOMAXPROCS(0)
	if w := Workers(10 * max); w != max {
		t.Fatalf("Workers(%d) = %d, want GOMAXPROCS=%d", 10*max, w, max)
	}
}

func TestChunksPartitionContiguously(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		hits := make([]atomic.Int32, n)
		var mu sync.Mutex
		var chunks [][2]int
		Chunks(n, func(lo, hi int) {
			mu.Lock()
			chunks = append(chunks, [2]int{lo, hi})
			mu.Unlock()
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, got)
			}
		}
		if n == 0 {
			if len(chunks) != 0 {
				t.Fatalf("n=0: ran %d chunks, want none", len(chunks))
			}
			continue
		}
		if len(chunks) > Workers(n) {
			t.Fatalf("n=%d: %d chunks, more than Workers(n)=%d", n, len(chunks), Workers(n))
		}
		sort.Slice(chunks, func(a, b int) bool { return chunks[a][0] < chunks[b][0] })
		next := 0
		for _, c := range chunks {
			if c[0] != next || c[1] <= c[0] {
				t.Fatalf("n=%d: chunks %v do not tile [0, n) contiguously", n, chunks)
			}
			next = c[1]
		}
		if next != n {
			t.Fatalf("n=%d: chunks %v end at %d", n, chunks, next)
		}
	}
}
