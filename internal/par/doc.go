// Package par provides the bounded worker pool the solvers and the
// affectance engines fan work out on. Every parallel loop in the
// repository routes through ForEach, or Chunks where each worker keeps
// scratch across its items, so concurrency is capped at GOMAXPROCS —
// never one goroutine per item — and so results are written into
// index-addressed slots, which keeps schedules bitwise-reproducible: the
// partitioning of items across workers can never reorder a
// floating-point accumulation that happens inside a single item.
package par
