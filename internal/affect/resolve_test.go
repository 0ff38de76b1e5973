package affect_test

import (
	"math/rand"
	"testing"

	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/faultinject"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/sinr"
)

// TestResolveSelectsEngine pins the resolver's one decision table: an
// attached engine serving the requested variant is used — the dense cache
// through its Rows adapter, the sparse engine and any wrapper of an
// engine as is — and everything else falls back to a new Direct engine.
func TestResolveSelectsEngine(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(3)), 40, 100, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	powers := power.Powers(m, in, power.Sqrt())
	const v = sinr.Bidirectional
	dense := affect.New(m, v, in, powers)
	eng, err := sparse.New(m, v, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	otherSparse, err := sparse.New(m, sinr.Directed, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	direct := affect.NewDirect(m, v, in, powers)
	wrapped := faultinject.WrapCache(eng, faultinject.NewInjector(1, faultinject.Config{}))

	isDirect := func(e affect.Engine) bool { _, ok := e.(*affect.Direct); return ok }
	cases := []struct {
		name     string
		attached sinr.Cache
		beta     float64 // the model's gain when nonzero
		want     func(affect.Engine) bool
	}{
		{"dense, requested variant", dense, 0, func(e affect.Engine) bool { return e == affect.Rows{Cache: dense} }},
		// The matrices depend on α and the powers only, so an engine
		// survives WithBeta.
		{"dense, after WithBeta(4)", dense, 4, func(e affect.Engine) bool { return e == affect.Rows{Cache: dense} }},
		{"dense, other variant", affect.New(m, sinr.Directed, in, powers), 0, isDirect},
		{"sparse", eng, 0, func(e affect.Engine) bool { return e == eng }},
		{"sparse, other variant", otherSparse, 0, isDirect},
		{"fault-injection wrapper", wrapped, 0, func(e affect.Engine) bool { return e == wrapped }},
		{"direct", direct, 0, func(e affect.Engine) bool { return e == direct }},
		{"nothing", nil, 0, isDirect},
	}
	for _, c := range cases {
		mm := m
		if c.attached != nil {
			mm = m.WithCache(c.attached)
		}
		if c.beta != 0 {
			mm = mm.WithBeta(c.beta)
		}
		got := affect.Resolve(mm, v, in, powers)
		if !c.want(got) {
			t.Errorf("%s: Resolve returned %T", c.name, got)
			continue
		}
		if got.Variant() != v {
			t.Errorf("%s: resolved engine serves %s, want %s", c.name, got.Variant(), v)
		}
		if got.NewSetTracker(mm, v) == nil {
			t.Errorf("%s: resolved engine hands out no tracker", c.name)
		}
	}
	// Powers the attached engine does not cover detach it, as everywhere.
	other := power.Powers(m, in, power.Linear())
	if got := affect.Resolve(m.WithCache(dense), v, in, other); !isDirect(got) || !got.Covers(in, m.Alpha, other) {
		t.Errorf("foreign powers: Resolve returned %T", got)
	}
	if faultinject.WrapCache(nil, faultinject.NewInjector(1, faultinject.Config{})) != nil {
		t.Error("WrapCache wrapped a missing cache")
	}
}
