package tensordsl

import (
	"math"
	"math/rand"
	"testing"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// bufBits flattens a buffer into raw bit patterns.
func bufBits(b *graph.Buffer) []uint64 {
	var out []uint64
	for _, part := range [][]float32{b.F32, b.Hi, b.Lo} {
		for _, v := range part {
			out = append(out, uint64(math.Float32bits(v)))
		}
	}
	for _, v := range b.F64 {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestEvalReadsLeavesInPlace checks the evaluator's in-place leaf reads: on
// every tile, evaluating into a destination that is also a leaf, with
// broadcast replicated scalars and with leaves of another scalar type, leaves
// exactly the bits of evaluating into a fresh buffer. A leaf of the eval type
// is read in place; a leaf of another type is still converted into scratch.
func TestEvalReadsLeavesInPlace(t *testing.T) {
	const n = 197 // three or four elements on each of the 64 tiles
	s := newSession(t)
	rng := rand.New(rand.NewSource(5))
	vec := func(name string, dt ipu.Scalar) *Tensor {
		h := make([]float64, n)
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		h[n/2], h[n-1] = math.NaN(), math.Inf(-1)
		v := s.MustTensor(name, dt, split(s, n))
		if err := v.SetHost(h); err != nil {
			t.Fatal(err)
		}
		return v
	}
	scalar := func(name string, dt ipu.Scalar, v float64) *Tensor {
		sc := s.MustScalar(name, dt)
		sc.SetValue(v)
		return sc
	}
	x, a, xf := vec("x", ipu.F32), vec("a", ipu.F32), vec("xf", ipu.F32)
	xd, yd := vec("xd", ipu.DW), vec("yd", ipu.DW)
	alpha, alphaD := scalar("alpha", ipu.F32, -0.3), scalar("alphaD", ipu.DW, 1.0/3)

	cases := []struct {
		name string
		dst  *Tensor
		e    *Expr
	}{
		{"x = x + a·x (F32, dst a leaf)", x, Add(x, Mul(a, x))},
		{"xd = xd·yd − xd (DW, dst a leaf)", xd, Sub(Mul(xd, yd), xd)},
		{"x = α·x − x (broadcast F32 scalar)", x, Sub(Mul(alpha, x), x)},
		{"xd = αd·xd (broadcast DW scalar)", xd, Mul(alphaD, xd)},
		{"xd = xd + xf (F32 leaf in a DW eval)", xd, Add(xd, xf)},
		{"xf = xf·xd + xf (F32 dst and leaf in a DW eval)", xf, Add(Mul(xf, xd), xf)},
	}
	for _, tc := range cases {
		evalType := promote(tc.e.dt, tc.dst.dt)
		sc := &evalScratch{}
		for tile, size := range tc.dst.sizes {
			if size == 0 {
				continue
			}
			fresh := graph.NewBuffer(tc.dst.dt, size)
			evalInto(tc.e, tile, evalType, fresh, sc)
			dst := tc.dst.Buf(tile)
			evalInto(tc.e, tile, evalType, dst, sc)
			got, want := bufBits(dst), bufBits(fresh)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, tile %d: word %d is %#x in place, %#x into a fresh buffer", tc.name, tile, i, got[i], want[i])
				}
			}
		}
	}

	// The leaf reads themselves: same type aliases, another type converts.
	sc := &evalScratch{}
	if v := loadLeaf(x, 0, ipu.F32, x.sizes[0], sc); &v.f[0] != &x.Buf(0).F32[0] {
		t.Error("an F32 leaf in an F32 eval was copied, not read in place")
	}
	if v := loadLeaf(xd, 0, ipu.DW, xd.sizes[0], sc); &v.hi[0] != &xd.Buf(0).Hi[0] || &v.lo[0] != &xd.Buf(0).Lo[0] {
		t.Error("a DW leaf in a DW eval was copied, not read in place")
	}
	v := loadLeaf(xf, 0, ipu.DW, xf.sizes[0], sc)
	for i, f := range xf.Buf(0).F32 {
		if math.Float32bits(v.hi[i]) != math.Float32bits(f) || v.lo[i] != 0 {
			t.Fatalf("F32 leaf in a DW eval, element %d: (%v, %v), want (%v, 0)", i, v.hi[i], v.lo[i], f)
		}
	}
	if len(v.f) != 0 {
		t.Error("an F32 leaf in a DW eval kept its F32 buffer")
	}
}
