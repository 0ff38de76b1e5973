// Package lint holds oblint's five project-invariant analyzers. Each one
// pins a contract that an earlier PR established by hand and that future
// growth (daemon, sharding, pipeline parallelism) would otherwise erode:
//
//   - hotpath: //oblint:hotpath functions stay free of math.Pow,
//     fmt.Sprint*, capacity-less append growth, and interface dispatch on
//     devirtualizable types (the PR-5 HST win).
//   - ctxloop: exported context-aware solver entry points poll ctx inside
//     every n-scaling loop (the PR-1 post-review fix).
//   - trackerreset: a recycled sinr.SetTracker is Reset before re-Add
//     (the PR 3–5 tracker pooling contract).
//   - registryhygiene: solvers are registered through NewSolver so
//     Stats.Engine is always populated, and internal packages carry a
//     doc.go.
//   - benchguard: Benchmark functions reset the timer after setup so
//     their numbers measure the algorithm, not the harness.
//
// The analyzers run over cmd/oblint (and through make lint / CI); their
// semantics are specified by the analysistest fixtures under testdata.
package lint
