package oblivious

import (
	"context"
	"math"
	"testing"
)

// FuzzUnmarshalInstance guards the JSON decoder against panics and checks
// the round-trip invariant on every successfully decoded instance.
func FuzzUnmarshalInstance(f *testing.F) {
	f.Add([]byte(`{"line":[0,1],"requests":[{"u":0,"v":1}]}`))
	f.Add([]byte(`{"points":[[0,0],[1,1]],"requests":[{"u":0,"v":1}]}`))
	f.Add([]byte(`{"matrix":[[0,1],[1,0]],"requests":[{"u":0,"v":1}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"line":[0,0],"requests":[{"u":0,"v":1}]}`))
	f.Add([]byte(`{"line":[0,1],"requests":[{"u":0,"v":9}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalInstance(data)
		if err != nil {
			return // malformed input must be rejected, not panic
		}
		// Decoded instances must satisfy the constructor invariants.
		if in.N() == 0 {
			t.Fatal("decoded instance with zero requests")
		}
		for i := 0; i < in.N(); i++ {
			if !(in.Length(i) > 0) {
				t.Fatalf("request %d has non-positive length", i)
			}
		}
		// And round-trip.
		out, err := MarshalInstance(in)
		if err != nil {
			t.Fatalf("marshal of a decoded instance failed: %v", err)
		}
		back, err := UnmarshalInstance(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.N() != in.N() {
			t.Fatalf("round trip changed N: %d -> %d", in.N(), back.N())
		}
	})
}

// FuzzSparseConservative is the conservativeness fuzzer of the engine
// matrix: for any decodable instance, any affectance mode, and any ε
// budget, a schedule the solve accepts must pass the exact dense oracle —
// the sparse engine's far-field bounds may cost colors but never
// feasibility. Invalid budgets must be rejected by every mode uniformly,
// and the reported engine must match the Resolve predicate.
func FuzzSparseConservative(f *testing.F) {
	f.Add([]byte(`{"line":[0,1,5,6,20,22],"requests":[{"u":0,"v":1},{"u":2,"v":3},{"u":4,"v":5}]}`), uint8(2), 8.0)
	f.Add([]byte(`{"points":[[0,0],[1,1],[9,0],[9,1.5]],"requests":[{"u":0,"v":1},{"u":2,"v":3}]}`), uint8(1), 0.5)
	f.Add([]byte(`{"points":[[0,0],[1,1],[9,0],[9,1.5]],"requests":[{"u":0,"v":1},{"u":2,"v":3}]}`), uint8(2), 0.0)
	f.Add([]byte(`{"matrix":[[0,1],[1,0]],"requests":[{"u":0,"v":1}]}`), uint8(2), 8.0)
	f.Add([]byte(`{"line":[0,1],"requests":[{"u":0,"v":1}]}`), uint8(0), -1.0)
	f.Add([]byte(`{"line":[0,1],"requests":[{"u":0,"v":1}]}`), uint8(2), 1e300)
	f.Fuzz(func(t *testing.T, data []byte, modeByte uint8, eps float64) {
		in, err := UnmarshalInstance(data)
		if err != nil || in.N() > 48 {
			return // malformed or too large to fuzz-solve
		}
		mode := AffectanceMode(int(modeByte) % 3)
		m := DefaultModel()
		res, err := Lookup("greedy").Solve(context.Background(), m, in,
			WithAffectanceMode(mode), WithEpsilon(eps))
		if eps < 0 || math.IsNaN(eps) {
			if err == nil {
				t.Fatalf("mode %s accepted invalid epsilon %g", mode, eps)
			}
			return
		}
		if err != nil {
			// Legal rejection (e.g. forced sparse on a coordinate-free
			// metric); the fuzzer only insists accepted schedules are sound.
			return
		}
		if err := Validate(m, in, Bidirectional, res.Schedule); err != nil {
			t.Fatalf("mode %s, eps %g: accepted schedule fails the dense oracle: %v", mode, eps, err)
		}
		// Engine reporting must be consistent with the mode's hard
		// constraints — checked against first principles, not against
		// Resolve (the wrapper fills the field from Resolve, so that
		// comparison would be circular).
		switch res.Stats.Engine {
		case "dense":
			if mode == AffectSparse && eps > 0 {
				t.Fatalf("forced sparse (eps %g) reported dense", eps)
			}
		case "sparse":
			if mode == AffectDense || eps == 0 {
				t.Fatalf("mode %s, eps %g reported sparse", mode, eps)
			}
		default:
			t.Fatalf("mode %s: unexpected Stats.Engine %q", mode, res.Stats.Engine)
		}
	})
}

// FuzzParseAffectanceMode pins the parser/String round trip: every string
// the parser accepts must print back to itself, and every printed mode
// must re-parse to the same value.
func FuzzParseAffectanceMode(f *testing.F) {
	f.Add("auto")
	f.Add("dense")
	f.Add("sparse")
	f.Add("octree")
	f.Add("")
	f.Add("direct")
	f.Fuzz(func(t *testing.T, s string) {
		mode, err := ParseAffectanceMode(s)
		if err != nil {
			return
		}
		if mode.String() != s {
			t.Fatalf("ParseAffectanceMode(%q).String() = %q", s, mode.String())
		}
		back, err := ParseAffectanceMode(mode.String())
		if err != nil || back != mode {
			t.Fatalf("round trip of %q: %v, %v", s, back, err)
		}
	})
}

// FuzzUnmarshalSchedule guards the schedule decoder.
func FuzzUnmarshalSchedule(f *testing.F) {
	f.Add([]byte(`{"colors":[0,1],"powers":[1,2]}`))
	f.Add([]byte(`{"colors":[],"powers":[]}`))
	f.Add([]byte(`{"colors":[0],"powers":[1,2]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSchedule(data)
		if err != nil {
			return
		}
		if len(s.Colors) == 0 || len(s.Colors) != len(s.Powers) {
			t.Fatal("decoder accepted an inconsistent schedule")
		}
	})
}
