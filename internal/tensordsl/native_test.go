package tensordsl

import (
	"math"
	"math/rand"
	"testing"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// TestFusedSumMatchesEval checks the N-term fused assign against the
// expression evaluator the codelets run. The fused loop may associate the
// roundings differently (coefficients fold first, the sum runs left to
// right), so the two agree to a few float32 ulps of the terms' total
// magnitude, not bit for bit. The cases include PBiCGStab's two updates with
// dst aliasing a term, product and divide terms, and a constant.
func TestFusedSumMatchesEval(t *testing.T) {
	const n = 57
	s := newSession(t)
	rng := rand.New(rand.NewSource(3))
	vec := func(name string) (*Tensor, []float64) {
		h := make([]float64, n)
		for i := range h {
			h[i] = float64(float32(rng.NormFloat64() + 3)) // away from 0: some cases divide by it
		}
		return s.MustTensor(name, ipu.F32, split(s, n)), h
	}
	x, xh := vec("x")
	y, yh := vec("y")
	z, zh := vec("z")
	w, wh := vec("w")
	alpha, omega := s.MustScalar("alpha", ipu.F32), s.MustScalar("omega", ipu.F32)
	const a, o = 0.375, -1.25
	abs := math.Abs

	cases := []struct {
		name string
		dst  *Tensor
		e    *Expr
		ref  func(j int) (val, scale float64) // float64 value and Σ|term|
	}{
		{"p = r + β(p − ωv)", x, Add(y, Mul(alpha, Sub(x, Mul(omega, z)))), func(j int) (float64, float64) {
			return yh[j] + a*(xh[j]-o*zh[j]), abs(yh[j]) + abs(a*xh[j]) + abs(a*o*zh[j])
		}},
		{"x = x + αy + ωz", x, Add(x, Add(Mul(alpha, y), Mul(omega, z))), func(j int) (float64, float64) {
			return xh[j] + a*yh[j] + o*zh[j], abs(xh[j]) + abs(a*yh[j]) + abs(o*zh[j])
		}},
		{"four terms, one a product", w, Sub(Add(x, Mul(y, z)), Add(Mul(alpha, w), z)), func(j int) (float64, float64) {
			return xh[j] + yh[j]*zh[j] - a*wh[j] - zh[j], abs(xh[j]) + abs(yh[j]*zh[j]) + abs(a*wh[j]) + abs(zh[j])
		}},
		{"divide term and a constant", y, Add(Add(Div(x, z), Mul(omega, w)), 2.5), func(j int) (float64, float64) {
			return xh[j]/zh[j] + o*wh[j] + 2.5, abs(xh[j]/zh[j]) + abs(o*wh[j]) + 2.5
		}},
		{"five plain terms", z, Add(Add(Add(x, y), Add(z, w)), Mul(alpha, x)), func(j int) (float64, float64) {
			v := xh[j] + yh[j] + zh[j] + wh[j] + a*xh[j]
			return v, abs(xh[j]) + abs(yh[j]) + abs(zh[j]) + abs(wh[j]) + abs(a*xh[j])
		}},
	}
	for _, tc := range cases {
		load := func() {
			for _, p := range []struct {
				t *Tensor
				h []float64
			}{{x, xh}, {y, yh}, {z, zh}, {w, wh}} {
				if err := p.t.SetHost(p.h); err != nil {
					t.Fatal(err)
				}
			}
			alpha.SetValue(a)
			omega.SetValue(o)
		}
		if terms, ok := normalizeTerms(tc.e); !ok || len(terms) < 3 {
			t.Fatalf("%s: normalizes to %d terms (ok=%v), want an N-term sum", tc.name, len(terms), ok)
		}
		if tc.dst.fusedAssign(tc.e, ipu.F32) == nil {
			t.Fatalf("%s: no fused kernel, the assign would fall back to evalInto", tc.name)
		}
		before := len(s.Program().Steps)
		tc.dst.Assign(tc.e)
		cs := s.Program().Steps[before].(graph.Compute).Set

		load()
		for _, c := range cs.Vertices() {
			c.Run()
		}
		want := tc.dst.Host()
		load()
		cs.NativeKernel.Run()
		got := tc.dst.Host()
		for j := range want {
			val, scale := tc.ref(j)
			tol := 8 * scale / (1 << 23)
			if d := abs(got[j] - want[j]); d > tol || math.IsNaN(got[j]) {
				t.Fatalf("%s: [%d] fused %v, evaluator %v: off by %g, over %g", tc.name, j, got[j], want[j], d, tol)
			}
			if d := abs(got[j] - val); d > tol {
				t.Fatalf("%s: [%d] fused %v, float64 reference %v: off by %g, over %g", tc.name, j, got[j], val, d, tol)
			}
		}
	}
}
