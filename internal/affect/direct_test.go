package affect

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// TestEngineBoundsMatchDense pins the exact engines' pair and set queries
// bitwise against the dense matrices and the model, for both variants and
// all three power assignments: PairBound(i, j) is entry (i, j) of the
// Into matrices, InterferenceBound is the model's interference sum, and
// the signals plus InterferenceBound, through sinr.Model.SignalMargin,
// are the model's Margin at β = 1 and β = 4.
func TestEngineBoundsMatchDense(t *testing.T) {
	in := randomInstance(t, 31, 40)
	rng := rand.New(rand.NewSource(5))
	m := sinr.Default()
	for _, a := range assignments() {
		powers := power.Powers(m, in, a)
		for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
			c := New(m, v, in, powers)
			for _, eng := range []Engine{Rows{c}, NewDirect(m, v, in, powers)} {
				for i := 0; i < in.N(); i++ {
					for j := 0; j < in.N(); j++ {
						b1, b2 := eng.PairBound(i, j)
						w1, w2 := c.DirectedInto(i), []float64(nil)
						if v == sinr.Bidirectional {
							w1, w2 = c.IntoU(i), c.IntoV(i)
						}
						if b1 != w1[j] || (w2 != nil && b2 != w2[j]) || (w2 == nil && b2 != 0) {
							t.Fatalf("%T %s %s: PairBound(%d,%d) = (%g,%g), dense (%g,%v)",
								eng, a.Name(), v, i, j, b1, b2, w1[j], w2)
						}
					}
				}
				for trial := 0; trial < 20; trial++ {
					set := randomSet(rng, in.N())
					i := rng.Intn(in.N())
					b1, b2 := eng.InterferenceBound(set, i)
					var w1, w2 float64
					if v == sinr.Directed {
						w1 = m.DirectedInterference(in, powers, set, i)
					} else {
						w1 = m.RequestInterferenceU(in, powers, set, i)
						w2 = m.RequestInterferenceV(in, powers, set, i)
					}
					if b1 != w1 || b2 != w2 {
						t.Fatalf("%T %s %s: InterferenceBound(%v, %d) = (%g,%g), model (%g,%g)",
							eng, a.Name(), v, set, i, b1, b2, w1, w2)
					}
					for _, beta := range []float64{1, 4} {
						mb := m.WithBeta(beta)
						got := mb.SignalMargin(v, eng.Signals()[i], b1, b2)
						if want := mb.Margin(in, v, powers, set, i); !sameBits(got, want) {
							t.Fatalf("%T %s %s β=%g: margin of %d in %v = %g, model %g",
								eng, a.Name(), v, beta, i, set, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDirectTrackerMatchesDense drives the dense and the direct tracker
// through one random sequence of probes, admissions (with and without a
// preceding CanAdd, whose memo the direct Add reuses) and removals, on an
// instance with zero-distance pairs: every answer and every margin must
// agree bitwise, because both accumulate the same values in the same
// order.
func TestDirectTrackerMatchesDense(t *testing.T) {
	for _, in := range []struct {
		name string
		inst *problem.Instance
	}{{"random", randomInstance(t, 41, 30)}, {"shared-node", sharedNodeInstance(t)}} {
		inst := in.inst
		// A low gain keeps most probes admissible, so sets grow large.
		m := sinr.Default().WithBeta(0.05)
		for _, a := range assignments() {
			powers := power.Powers(m, inst, a)
			for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
				dense := NewTracker(m, v, New(m, v, inst, powers))
				direct := NewDirect(m, v, inst, powers).NewSetTracker(m, v)
				rng := rand.New(rand.NewSource(7))
				for step := 0; step < 300; step++ {
					i := rng.Intn(inst.N())
					switch {
					case dense.Contains(i):
						dense.Remove(i)
						direct.Remove(i)
					case rng.Intn(2) == 0:
						ok := dense.CanAdd(i)
						if got := direct.CanAdd(i); got != ok {
							t.Fatalf("%s %s %s step %d: CanAdd(%d) direct %t, dense %t", in.name, a.Name(), v, step, i, got, ok)
						}
						if ok {
							dense.Add(i)
							direct.Add(i)
						}
					default:
						if got, want := direct.AddMargin(i), dense.AddMargin(i); !sameBits(got, want) {
							t.Fatalf("%s %s %s step %d: AddMargin(%d) direct %g, dense %g", in.name, a.Name(), v, step, i, got, want)
						}
						dense.Add(i)
						direct.Add(i)
					}
					for k := 0; k < dense.Len(); k++ {
						j := dense.At(k)
						if direct.At(k) != j {
							t.Fatalf("%s %s %s step %d: member %d is %d, dense %d", in.name, a.Name(), v, step, k, direct.At(k), j)
						}
						if got, want := direct.Margin(j), dense.Margin(j); !sameBits(got, want) {
							t.Fatalf("%s %s %s step %d: Margin(%d) direct %g, dense %g", in.name, a.Name(), v, step, j, got, want)
						}
					}
				}
			}
		}
	}
}

// sameBits reports bitwise equality, with every NaN equal to every NaN.
func sameBits(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
