package distributed

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/sinr"
)

func TestDefaultParameters(t *testing.T) {
	p := Default()
	if p.Assignment == nil || p.Assignment.Name() != "sqrt" {
		t.Error("default assignment should be sqrt")
	}
}

func TestRunValidation(t *testing.T) {
	m := sinr.Default()
	in, err := instance.LineChain(4, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := (Protocol{}).Run(m, in, rng); err == nil {
		t.Error("zero-value protocol should fail")
	}
	if _, err := Default().Run(m, in, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestProtocolDrainsAndValidates(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(2)), 40, 200, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Default().Run(m, in, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Complete() {
		t.Fatal("incomplete schedule")
	}
	if err := m.CheckSchedule(in, sinr.Bidirectional, res.Schedule); err != nil {
		t.Errorf("invalid distributed schedule: %v", err)
	}
	if res.Slots < res.Schedule.NumColors() {
		t.Errorf("slots %d below colors %d", res.Slots, res.Schedule.NumColors())
	}
	if res.Attempts < in.N() {
		t.Errorf("attempts %d below n", res.Attempts)
	}
	if res.Failures != res.Attempts-countSuccesses(res) {
		t.Errorf("failure accounting inconsistent: %d attempts, %d failures", res.Attempts, res.Failures)
	}
}

// countSuccesses: every request succeeds exactly once.
func countSuccesses(res *Result) int { return len(res.Schedule.Colors) }

func TestProtocolSingleRequest(t *testing.T) {
	m := sinr.Default()
	in, err := instance.LineChain(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Default().Run(m, in, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumColors() != 1 {
		t.Errorf("colors = %d, want 1", res.Schedule.NumColors())
	}
}

func TestSlotBudgetExhausted(t *testing.T) {
	// With the noise above every request's signal no transmission
	// succeeds, not even alone, so the protocol runs out of slots.
	m := sinr.Model{Alpha: 3, Beta: 1, Noise: 1}
	in, err := instance.LineChain(2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Default().Run(m, in, rand.New(rand.NewSource(5)))
	if !errors.Is(err, ErrSlotsExhausted) {
		t.Errorf("error = %v, want ErrSlotsExhausted", err)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(6)), 20, 150, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Default().Run(m, in, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default().Run(m, in, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Slots != b.Slots || a.Attempts != b.Attempts {
		t.Error("protocol not deterministic for a fixed seed")
	}
}

// TestProtocolValidityProperty: the protocol always produces valid
// bidirectional schedules across random workloads and assignments.
func TestProtocolValidityProperty(t *testing.T) {
	m := sinr.Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, err := instance.UniformRandom(r, 4+r.Intn(24), 200, 1, 6)
		if err != nil {
			return false
		}
		p := Default()
		if r.Intn(2) == 0 {
			p.Assignment = power.Exponent(0.25 + r.Float64()*0.5)
		}
		res, err := p.Run(m, in, r)
		if err != nil {
			return false
		}
		return res.Schedule.Complete() && m.CheckSchedule(in, sinr.Bidirectional, res.Schedule) == nil
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(91))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// countingProvider wraps an affectance engine and records whether the
// simulator asked it for a tracker and got one. It embeds the whole
// affect.Engine face: a wrapper without it would resolve to the direct
// engine, as for every consumer.
type countingProvider struct {
	affect.Engine
	calls      int
	gotTracker bool
}

func (c *countingProvider) NewSetTracker(m sinr.Model, v sinr.Variant) sinr.SetTracker {
	c.calls++
	tr := c.Engine.NewSetTracker(m, v)
	if tr != nil {
		c.gotTracker = true
	}
	return tr
}

// TestTrackerPathMatchesOracle runs the protocol with a pre-attached
// sparse engine (the tracker-backed per-slot success checks) and pins the
// contract of the conservative margins: the run drains, the schedule
// passes the exact dense oracle, and with ε=0 — which the solvers'
// engine selection resolves to the dense cache — the run reproduces the
// row-path schedule exactly, seed for seed.
func TestTrackerPathMatchesOracle(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(7)), 60, 220, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	p := Default()
	powers := power.Powers(m, in, p.Assignment)

	eng, err := sparse.New(m, sinr.Bidirectional, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	// The counting wrapper gives a positive signal that the tracker path
	// actually engaged — a silent regression to the row/direct fallback
	// would still drain and still pass the oracle, so without this the
	// test could not tell the feature from its absence.
	counting := &countingProvider{Engine: eng}
	res, err := p.Run(m.WithCache(counting), in, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if counting.calls == 0 || !counting.gotTracker {
		t.Fatalf("per-slot checks did not run on a provider tracker (calls=%d, tracker=%v)",
			counting.calls, counting.gotTracker)
	}
	if !res.Schedule.Complete() {
		t.Fatal("tracker path left an incomplete schedule")
	}
	// The oracle model carries no cache: every margin is the direct exact
	// computation.
	if err := m.CheckSchedule(in, sinr.Bidirectional, res.Schedule); err != nil {
		t.Errorf("tracker-path schedule fails the dense oracle: %v", err)
	}

	// ε=0 resolves to the dense cache, which provides no trackers —
	// the protocol must route such a run through the row path, where it
	// is the plain cached run bitwise. (This pins the routing contract of
	// the degeneration; it is NOT a tracker-vs-row equivalence — the
	// conservative tracker may legitimately demote successes.)
	var zero sinr.Cache = affect.New(m, sinr.Bidirectional, in, powers)
	if _, ok := zero.(sinr.TrackerProvider); ok {
		t.Fatal("eps=0 engine provides trackers; the degeneration contract moved")
	}
	a, err := p.Run(m.WithCache(zero), in, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run(m, in, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Slots != b.Slots || a.Attempts != b.Attempts || a.Failures != b.Failures {
		t.Errorf("eps=0 run diverged: %+v vs %+v", a, b)
	}
	for i := range a.Schedule.Colors {
		if a.Schedule.Colors[i] != b.Schedule.Colors[i] {
			t.Fatalf("eps=0 colors diverge at request %d", i)
		}
	}
}
