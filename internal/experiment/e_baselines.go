package experiment

import (
	"context"
	"math/rand"

	oblivious "repro"
	"repro/internal/coloring"
	"repro/internal/gridsched"
	"repro/internal/power"
	"repro/internal/sinr"
)

// E17GridBaseline compares the SINR-native schedulers against the folklore
// graph-based baseline: length classes plus grid spatial reuse (the kind of
// scheduling the paper's introduction criticizes graph models for). The
// conflict-clique lower bound certifies how close each algorithm is to the
// optimum for the square root assignment.
func E17GridBaseline(cfg Config) (*Table, error) {
	m := sinr.Default()
	t := &Table{
		ID:      "E17",
		Title:   "SINR-native scheduling vs graph-style grid TDMA (bidirectional, sqrt powers)",
		Columns: []string{"workload", "n", "clique LB", "greedy", "LP", "grid TDMA", "grid/greedy"},
		Notes: []string{
			"clique LB: a certified lower bound for ANY schedule under sqrt powers (pairwise-infeasible requests)",
			"expected shape: grid TDMA pays a class/reuse overhead factor over the SINR-native algorithms, which sit near the LB",
		},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	sizes := cfg.sizes([]int{32, 64, 128, 256}, []int{16, 32})
	for _, kind := range []string{"uniform", "clustered"} {
		for _, n := range sizes {
			in, err := randomWorkload(rng, kind, n)
			if err != nil {
				return nil, err
			}
			powers := power.Powers(m, in, power.Sqrt())
			lb := coloring.CliqueLowerBound(m, in, sinr.Bidirectional, powers)
			ctx := context.Background()
			g, err := oblivious.Lookup("greedy").Solve(ctx, m, in)
			if err != nil {
				return nil, err
			}
			lpRes, err := oblivious.Lookup("lp").Solve(ctx, m, in, oblivious.WithSeed(rng.Int63()))
			if err != nil {
				return nil, err
			}
			grid, err := gridsched.Schedule(m, in)
			if err != nil {
				return nil, err
			}
			t.AddRow(kind, Itoa(n), Itoa(lb), Itoa(g.Stats.Colors), Itoa(lpRes.Stats.Colors),
				Itoa(grid.NumColors()),
				Ftoa(float64(grid.NumColors())/float64(g.Stats.Colors), 1))
		}
	}
	return t, nil
}
