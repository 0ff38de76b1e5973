// Schedule-quality record: the colors each solver uses under each engine
// on a fixed seeded corpus, next to the clique lower bound that every
// schedule under the same powers must meet. The feasibility suites accept
// a schedule of any length; this golden is what fails when schedules get
// longer. A change that moves a row regenerates the file in the same
// change and names the moved rows. A speed change that is not bitwise
// may move rows only if every schedule passes the oracle, no solver ×
// engine row's summed colors rise, and no instance rises by more than one
// color.
package oblivious_test

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	oblivious "repro"
	"repro/internal/coloring"
	"repro/internal/instance"
)

// -update regenerates the golden file; it needs the full corpus:
//
//	go test -run TestQualityGolden -update .
var update = flag.Bool("update", false, "rewrite testdata/quality.golden")

const qualityGolden = "testdata/quality.golden"

// qualityInstance is one corpus entry; short entries also run under
// -short.
type qualityInstance struct {
	name  string
	short bool
	build func() (*oblivious.Instance, error)
}

// qualityCorpus keeps paper-512's density at every size: uniform
// instances in a square of side 300·√(n/512), clustered ones with 16
// requests per cluster of radius 20 in the same square.
func qualityCorpus() []qualityInstance {
	var corpus []qualityInstance
	for _, n := range []int{300, 1000, 2000} {
		side := 300 * math.Sqrt(float64(n)/512)
		corpus = append(corpus,
			qualityInstance{fmt.Sprintf("uniform-%d", n), n < 2000, func() (*oblivious.Instance, error) {
				return instance.UniformRandom(rand.New(rand.NewSource(1)), n, side, 1, 8)
			}},
			qualityInstance{fmt.Sprintf("clustered-%d", n), n < 2000, func() (*oblivious.Instance, error) {
				return instance.Clustered(rand.New(rand.NewSource(1)), n, 1+n/16, 20, side, 1)
			}})
	}
	return append(corpus,
		qualityInstance{"nested-40", true, func() (*oblivious.Instance, error) {
			return instance.NestedExponential(40, 2)
		}},
		qualityInstance{"linechain-1000", true, func() (*oblivious.Instance, error) {
			return instance.LineChain(1000, 1, 3)
		}})
}

// qualityEngines are the engines every solver runs under: the exact
// dense matrices and the sparse grid at its default budget ε = 8. The
// direct engine is bitwise dense (TestDirectEngineParity).
var qualityEngines = []oblivious.AffectanceMode{oblivious.AffectDense, oblivious.AffectSparse}

// qualitySolvers are the solvers the record holds rows for.
var qualitySolvers = []string{"greedy", "lp", "pipeline", "distributed", "online"}

// lpQualityInstances are the only instances lp runs on: its simplex
// dominates the record's time beyond them (one lp solve took 8–50 s at
// n = 1000, over a minute at n = 2000, and 16–17 s on linechain-1000).
var lpQualityInstances = map[string]bool{"uniform-300": true, "clustered-300": true, "nested-40": true}

// qualityRow renders one record row; the key is its first three fields.
func qualityRow(solver string, mode oblivious.AffectanceMode, inst string, colors, clique int) string {
	return fmt.Sprintf("%-11s %-7s %-15s %6d %6d %7.3f", solver, mode, inst, colors, clique, float64(colors)/float64(clique))
}

const qualityHeader = `# Schedule quality per solver × engine on a fixed seeded corpus: colors,
# the clique lower bound under the same powers, and their ratio. Sparse
# runs at ε = 8. Regenerate: go test -run TestQualityGolden -update .
# solver    engine  instance        colors clique   ratio
`

// TestQualityGolden recomputes the quality record and diffs it against
// the golden file. Under -short it recomputes the short corpus and
// compares those rows alone.
func TestQualityGolden(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update rewrites every row: run it without -short")
	}
	m := oblivious.DefaultModel()
	var got []string
	for _, qi := range qualityCorpus() {
		if testing.Short() && !qi.short {
			continue
		}
		in, err := qi.build()
		if err != nil {
			t.Fatalf("%s: %v", qi.name, err)
		}
		clique := coloring.CliqueLowerBound(m, in, oblivious.Bidirectional, oblivious.PowersFor(m, in, oblivious.Sqrt()))
		for _, solver := range qualitySolvers {
			if solver == "lp" && !lpQualityInstances[qi.name] {
				continue
			}
			for _, mode := range qualityEngines {
				res, err := oblivious.Lookup(solver).Solve(context.Background(), m, in,
					oblivious.WithSeed(1), oblivious.WithAffectanceMode(mode),
					oblivious.WithEpsilon(oblivious.DefaultSparseEpsilon), oblivious.WithValidation(true))
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", solver, mode, qi.name, err)
				}
				if res.Stats.Engine != mode.String() {
					t.Fatalf("%s/%s/%s ran on engine %q", solver, mode, qi.name, res.Stats.Engine)
				}
				got = append(got, qualityRow(solver, mode, qi.name, res.Stats.Colors, clique))
			}
		}
	}

	body := qualityHeader + strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(qualityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qualityGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(qualityGolden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := rowKey(line)
		want[key] = line
		order = append(order, key)
	}
	seen := map[string]bool{}
	for _, row := range got {
		key := rowKey(row)
		seen[key] = true
		if w, ok := want[key]; !ok {
			t.Errorf("row missing from %s (regenerate with -update):\n  got  %s", qualityGolden, row)
		} else if w != row {
			t.Errorf("row moved:\n  got  %s\n  want %s", row, w)
		}
	}
	if testing.Short() {
		return
	}
	for _, key := range order {
		if !seen[key] {
			t.Errorf("golden row %q no longer computed (regenerate with -update)", key)
		}
	}
	if !t.Failed() && string(data) != body {
		t.Errorf("%s differs from its regeneration outside the rows (header or row order)", qualityGolden)
	}
}

// rowKey returns a row's solver, engine and instance fields.
func rowKey(row string) string {
	f := strings.Fields(row)
	if len(f) < 3 {
		return row
	}
	return strings.Join(f[:3], " ")
}
