package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	oblivious "repro"
)

func writeInstance(t *testing.T) string {
	t.Helper()
	in, err := oblivious.NewLineInstance(
		[]float64{0, 1, 50, 51, 200, 202},
		[]oblivious.Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := oblivious.MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// baseConfig returns the flag defaults of the command for one instance.
func baseConfig(inPath string) config {
	return config{
		in: inPath, variant: "bidirectional", power: "sqrt", algo: "greedy",
		alpha: 3, beta: 1, seed: 1,
		admission: "first-fit", repair: "lazy",
		affect: "auto", eps: oblivious.DefaultSparseEpsilon,
	}
}

// sched runs the CLI with scheduling defaults for the trailing flags.
func sched(w io.Writer, inPath, variant, powerFn, algo string, alpha, beta, noise float64, seed int64, verbose bool, outPath, check string) error {
	cfg := baseConfig(inPath)
	cfg.variant, cfg.power, cfg.algo = variant, powerFn, algo
	cfg.alpha, cfg.beta, cfg.noise, cfg.seed = alpha, beta, noise, seed
	cfg.verbose, cfg.out, cfg.check = verbose, outPath, check
	return run(w, cfg)
}

// churn runs the CLI with explicit online/trace knobs.
func churn(w io.Writer, inPath, algo, admission, repair, trace string, nevents int) error {
	cfg := baseConfig(inPath)
	cfg.algo, cfg.admission, cfg.repair = algo, admission, repair
	cfg.trace, cfg.nevents = trace, nevents
	return run(w, cfg)
}

func TestRunGreedy(t *testing.T) {
	path := writeInstance(t)
	// Every registered solver is reachable through -algo.
	for _, algo := range oblivious.Solvers() {
		if err := sched(io.Discard, path, "bidirectional", "sqrt", algo, 3, 1, 0, 1, false, "", ""); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestRunDirectedGreedy(t *testing.T) {
	path := writeInstance(t)
	if err := sched(io.Discard, path, "directed", "linear", "greedy", 3, 1, 0, 1, true, "", ""); err != nil {
		t.Error(err)
	}
}

func TestRunWriteAndCheck(t *testing.T) {
	path := writeInstance(t)
	out := filepath.Join(t.TempDir(), "sched.json")
	if err := sched(io.Discard, path, "bidirectional", "sqrt", "greedy", 3, 1, 0, 1, false, out, ""); err != nil {
		t.Fatal(err)
	}
	if err := sched(io.Discard, path, "bidirectional", "sqrt", "greedy", 3, 1, 0, 1, false, "", out); err != nil {
		t.Errorf("check of a written schedule failed: %v", err)
	}
}

func TestRunOnlinePolicies(t *testing.T) {
	path := writeInstance(t)
	for _, adm := range []string{"first-fit", "best-fit", "power-fit"} {
		for _, rep := range []string{"lazy", "threshold", "eager"} {
			if err := churn(io.Discard, path, "online", adm, rep, "", 0); err != nil {
				t.Errorf("online %s/%s: %v", adm, rep, err)
			}
		}
	}
}

func TestRunTrace(t *testing.T) {
	path := writeInstance(t)
	for _, trace := range []string{"poisson", "bursty", "replay"} {
		var sb strings.Builder
		if err := churn(&sb, path, "greedy", "best-fit", "eager", trace, 40); err != nil {
			t.Errorf("trace %s: %v", trace, err)
			continue
		}
		out := sb.String()
		for _, want := range []string{"trace:", "peak:", "repairs:", "feasible:  yes"} {
			if !strings.Contains(out, want) {
				t.Errorf("trace %s output missing %q:\n%s", trace, want, out)
			}
		}
	}
}

// TestRunDirectEngine drives -affect direct through a solve, which must
// report the engine it ran on, and through a trace, whose slots are
// re-checked against the uncached oracle and which must replay exactly
// as on the dense engine auto selects at this size (only the timing line
// may differ).
func TestRunDirectEngine(t *testing.T) {
	path := writeLineInstance64(t)
	cfg := baseConfig(path)
	cfg.affect = "direct"
	var sb strings.Builder
	if err := run(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "engine:   direct\n") {
		t.Errorf("-affect direct solve does not report its engine:\n%s", sb.String())
	}
	untimed := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "cost:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	cfg.trace, cfg.nevents = "poisson", 400
	var trace [2]string
	for k, mode := range []string{"auto", "direct"} {
		cfg.affect = mode
		sb.Reset()
		if err := run(&sb, cfg); err != nil {
			t.Fatalf("-trace -affect %s: %v", mode, err)
		}
		trace[k] = untimed(sb.String())
	}
	if !strings.Contains(trace[1], "feasible:  yes (oracle-checked)") {
		t.Errorf("-trace -affect direct was not oracle-checked:\n%s", trace[1])
	}
	if trace[0] != trace[1] {
		t.Errorf("-trace replays differ between auto and direct:\n%s\n---\n%s", trace[0], trace[1])
	}
}

func TestRunErrors(t *testing.T) {
	path := writeInstance(t)
	cases := []struct {
		name string
		err  error
	}{
		{name: "missing input", err: sched(io.Discard, "", "bidirectional", "sqrt", "greedy", 3, 1, 0, 1, false, "", "")},
		{name: "bad variant", err: sched(io.Discard, path, "sideways", "sqrt", "greedy", 3, 1, 0, 1, false, "", "")},
		{name: "bad algo", err: sched(io.Discard, path, "bidirectional", "sqrt", "annealing", 3, 1, 0, 1, false, "", "")},
		{name: "bad power", err: sched(io.Discard, path, "bidirectional", "cubic", "greedy", 3, 1, 0, 1, false, "", "")},
		{name: "lp directed", err: sched(io.Discard, path, "directed", "sqrt", "lp", 3, 1, 0, 1, false, "", "")},
		{name: "missing file", err: sched(io.Discard, filepath.Join(t.TempDir(), "no.json"), "bidirectional", "sqrt", "greedy", 3, 1, 0, 1, false, "", "")},
		{name: "bad check file", err: sched(io.Discard, path, "bidirectional", "sqrt", "greedy", 3, 1, 0, 1, false, "", path)},
		{name: "bad admission", err: churn(io.Discard, path, "online", "worst-fit", "lazy", "", 0)},
		{name: "bad repair", err: churn(io.Discard, path, "online", "first-fit", "psychic", "", 0)},
		{name: "bad admission non-online", err: churn(io.Discard, path, "greedy", "worst-fit", "lazy", "", 0)},
		{name: "bad repair non-online", err: churn(io.Discard, path, "greedy", "first-fit", "psychic", "", 0)},
		{name: "bad trace", err: churn(io.Discard, path, "greedy", "first-fit", "lazy", "brownian", 0)},
		{name: "trace bad admission", err: churn(io.Discard, path, "greedy", "worst-fit", "lazy", "poisson", 10)},
		{name: "bad affect mode", err: func() error { cfg := baseConfig(path); cfg.affect = "octree"; return run(io.Discard, cfg) }()},
		{name: "negative eps", err: func() error {
			cfg := baseConfig(path)
			cfg.affect = "sparse"
			cfg.eps = -1
			return run(io.Discard, cfg)
		}()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// Profile plumbing: a -memprofile path that cannot be created must fail
// the run (it used to print to stderr and exit 0, leaving callers
// believing they had a profile), and a -cpuprofile failure must carry
// its own prefix. The success paths must leave non-empty profiles.
func TestRunProfileErrors(t *testing.T) {
	path := writeInstance(t)

	cfg := baseConfig(path)
	cfg.memProfile = filepath.Join(t.TempDir(), "no-such-dir", "mem.pb.gz")
	err := run(io.Discard, cfg)
	if err == nil || !strings.Contains(err.Error(), "memprofile") {
		t.Errorf("unwritable -memprofile: err = %v, want a memprofile error", err)
	}

	cfg = baseConfig(path)
	cfg.cpuProfile = filepath.Join(t.TempDir(), "no-such-dir", "cpu.pb.gz")
	err = run(io.Discard, cfg)
	if err == nil || !strings.Contains(err.Error(), "cpuprofile") {
		t.Errorf("unwritable -cpuprofile: err = %v, want a cpuprofile error", err)
	}
}

func TestRunProfilesWritten(t *testing.T) {
	path := writeInstance(t)
	dir := t.TempDir()
	cfg := baseConfig(path)
	cfg.cpuProfile = filepath.Join(dir, "cpu.pb.gz")
	cfg.memProfile = filepath.Join(dir, "mem.pb.gz")
	if err := run(io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cfg.cpuProfile, cfg.memProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// The assignment syntax itself is covered by the root package's
// ParseAssignment tests; here we only check the CLI surfaces its errors.
func TestRunBadPowerForLP(t *testing.T) {
	path := writeInstance(t)
	if err := sched(io.Discard, path, "bidirectional", "uniform", "lp", 3, 1, 0, 1, false, "", ""); err == nil {
		t.Error("lp with a non-sqrt -power should fail")
	}
}

// TestRunChaos drives the -chaos flag end to end: every fault kind at
// once, over a small seed sweep, against the tiny instance. The harness
// inside enforces the typed-error and feasibility contracts; here we
// check the CLI surfaces its summary and succeeds.
func TestRunChaos(t *testing.T) {
	path := writeInstance(t)
	var sb strings.Builder
	cfg := baseConfig(path)
	cfg.trace, cfg.nevents = "poisson", 60
	cfg.chaos, cfg.chaosSeeds = "all", 3
	if err := run(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"chaos:", "rejected", "injected:", "feasible:  yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos output missing %q:\n%s", want, out)
		}
	}
}

// TestRunCheckpoint cycles the engine through -checkpoint: the first
// run writes the file, the second restores from it (re-proving
// feasibility) and rewrites it.
func TestRunCheckpoint(t *testing.T) {
	path := writeInstance(t)
	ckpt := filepath.Join(t.TempDir(), "engine.ckpt")
	cfg := baseConfig(path)
	cfg.trace, cfg.nevents = "poisson", 40
	cfg.checkpoint = ckpt
	var first strings.Builder
	if err := run(&first, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "checkpoint: written") {
		t.Fatalf("first run did not write the checkpoint:\n%s", first.String())
	}
	if st, err := os.Stat(ckpt); err != nil || st.Size() == 0 {
		t.Fatalf("checkpoint file missing or empty: %v", err)
	}
	var second strings.Builder
	cfg.seed = 2
	if err := run(&second, cfg); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	for _, want := range []string{"restored:", "checkpoint: rewritten"} {
		if !strings.Contains(out, want) {
			t.Errorf("second run output missing %q:\n%s", want, out)
		}
	}
}

// TestRunChaosErrors pins the flag validation around -chaos/-checkpoint.
func TestRunChaosErrors(t *testing.T) {
	path := writeInstance(t)
	cases := []struct {
		name string
		err  error
	}{
		{name: "chaos without trace", err: func() error {
			cfg := baseConfig(path)
			cfg.chaos = "all"
			return run(io.Discard, cfg)
		}()},
		{name: "checkpoint without trace", err: func() error {
			cfg := baseConfig(path)
			cfg.checkpoint = filepath.Join(t.TempDir(), "c.ckpt")
			return run(io.Discard, cfg)
		}()},
		{name: "bad chaos kind", err: func() error {
			cfg := baseConfig(path)
			cfg.trace, cfg.chaos = "poisson", "gremlins"
			return run(io.Discard, cfg)
		}()},
		{name: "checkpoint with sweep", err: func() error {
			cfg := baseConfig(path)
			cfg.trace, cfg.chaos, cfg.chaosSeeds = "poisson", "all", 2
			cfg.checkpoint = filepath.Join(t.TempDir(), "c.ckpt")
			return run(io.Discard, cfg)
		}()},
		{name: "negative chaos seeds", err: func() error {
			cfg := baseConfig(path)
			cfg.trace, cfg.chaos, cfg.chaosSeeds = "poisson", "all", -1
			return run(io.Discard, cfg)
		}()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
