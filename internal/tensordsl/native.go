package tensordsl

import (
	"math"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/twofloat"
)

// This file lowers materialized expressions into native kernel descriptors —
// the ComputeSet.NativeKernel the native backend executes instead of per-tile
// codelets, and the simulator executes for a billed set (an evalInto fallback
// or a reduction). A kernel makes the same memory effects as running every
// vertex of the set but with no per-tile dispatch, no cycle model and zero
// steady-state allocation. float32 expressions that normalize to a sum of
// coeff * vec * vec / vec terms (axpy, scale, elementwise product and divide,
// any number of terms) become assign descriptors over precomputed slice
// tables, whose loops live in package graph's table and fuse with their
// neighbours; everything else is an opaque serial scratch-arena evaluation
// that is still allocation-free after the first run.
//
// A fused assign guarantees residual-level agreement with the simulator, not
// bit identity: its loop may associate roundings differently than the
// codelet evaluation tree, which is why its set stays interpreted.
// Cross-backend tests assert converged residuals.

// nativeAssign returns the native kernel for materializing e into t.
func (t *Tensor) nativeAssign(e *Expr, evalType ipu.Scalar) *graph.NativeKernel {
	if t.repl {
		// Replicated results are written once; the per-tile redundancy of the
		// simulated machine has no native equivalent.
		sc := &evalScratch{}
		return graph.OpaqueKernel(func() { evalInto(e, -1, evalType, t.rbuf, sc) },
			e.leafBuffers(nil), []*graph.Buffer{t.rbuf})
	}
	tiles, bufs := t.activeLocals()
	if k := t.fusedAssign(e, evalType); k != nil {
		k.Reads, k.Writes = e.leafBuffers(nil), bufs
		return k
	}
	// Generic fallback: evaluate per tile through a reused scratch arena.
	sc := &evalScratch{}
	return graph.OpaqueKernel(func() {
		for i, buf := range bufs {
			evalInto(e, tiles[i], evalType, buf, sc)
		}
	}, e.leafBuffers(nil), bufs)
}

// leafBuffers appends the device buffers behind every tensor leaf of e.
func (e *Expr) leafBuffers(out []*graph.Buffer) []*graph.Buffer {
	switch e.kind {
	case leafTensor:
		if e.t.repl {
			return append(out, e.t.rbuf)
		}
		_, bufs := e.t.activeLocals()
		return append(out, bufs...)
	case unaryExpr:
		return e.a.leafBuffers(out)
	case binaryExpr:
		return e.b.leafBuffers(e.a.leafBuffers(out))
	}
	return out
}

// activeLocals lists the populated tiles of a distributed tensor with their
// local buffers.
func (t *Tensor) activeLocals() ([]int, []*graph.Buffer) {
	var tiles []int
	var bufs []*graph.Buffer
	for tile, buf := range t.bufs {
		if t.sizes[tile] > 0 {
			tiles = append(tiles, tile)
			bufs = append(bufs, buf)
		}
	}
	return tiles, bufs
}

// fusedTerm is one additive term of a normalized float32 expression:
// coeff * (product of replicated scalars) * vec * vec2 / div, every slot
// optional. Two distributed factors cover the elementwise-product family
// (Jacobi's z = D⁻¹r is invd*r).
type fusedTerm struct {
	coeff   float64
	scalars []*graph.Buffer // replicated float32 scalars, read at run time
	vec     *Tensor         // distributed factor (nil = scalar term)
	vec2    *Tensor         // second distributed factor (elementwise product)
	div     *Tensor         // distributed divisor
}

// fusedAssign describes dst = e as a fused float32 assign when the expression
// normalizes to a sum of terms of the fusedTerm shape. Returns nil when the
// shape (or any dtype) falls outside the fast path.
func (t *Tensor) fusedAssign(e *Expr, evalType ipu.Scalar) *graph.NativeKernel {
	if evalType != ipu.F32 || t.dt != ipu.F32 {
		return nil
	}
	terms, ok := normalizeTerms(e)
	if !ok || len(terms) == 0 {
		return nil
	}
	dst := t.f32Segs()
	segs := func(src *Tensor) [][]float32 {
		if src == nil {
			return nil
		}
		return src.f32Segs()
	}
	out := make([]graph.Term, len(terms))
	for i, tm := range terms {
		out[i] = graph.Term{Coeff: tm.coeff, Scalars: tm.scalars,
			Vec: segs(tm.vec), Vec2: segs(tm.vec2), Div: segs(tm.div)}
		for _, tab := range [][][]float32{out[i].Vec, out[i].Vec2, out[i].Div} {
			if tab != nil && len(tab) != len(dst) {
				return nil
			}
		}
	}
	return graph.AssignKernel(dst, out)
}

// f32Segs is the tensor's block table: the float32 slice of every populated
// tile, in tile order.
func (t *Tensor) f32Segs() [][]float32 {
	_, bufs := t.activeLocals()
	out := make([][]float32, len(bufs))
	for i, b := range bufs {
		out[i] = b.F32
	}
	return out
}

// normalizeTerms flattens e into a sum of fusedTerms. ok=false marks any
// construct outside the fused subset (abs/sqrt, non-F32 leaves, a term with
// two distributed factors, division by a sum, ...).
func normalizeTerms(e *Expr) ([]fusedTerm, bool) {
	switch e.kind {
	case leafConst:
		return []fusedTerm{{coeff: e.c}}, true
	case leafTensor:
		lt := e.t
		if lt.dt != ipu.F32 {
			return nil, false
		}
		if lt.repl {
			if lt.n != 1 {
				return nil, false
			}
			return []fusedTerm{{coeff: 1, scalars: []*graph.Buffer{lt.rbuf}}}, true
		}
		return []fusedTerm{{coeff: 1, vec: lt}}, true
	case unaryExpr:
		if e.op != 'n' {
			return nil, false
		}
		terms, ok := normalizeTerms(e.a)
		if !ok {
			return nil, false
		}
		for i := range terms {
			terms[i].coeff = -terms[i].coeff
		}
		return terms, true
	case binaryExpr:
		a, ok := normalizeTerms(e.a)
		if !ok {
			return nil, false
		}
		b, ok := normalizeTerms(e.b)
		if !ok {
			return nil, false
		}
		switch e.op {
		case '+':
			return append(a, b...), true
		case '-':
			for i := range b {
				b[i].coeff = -b[i].coeff
			}
			return append(a, b...), true
		case '*':
			if len(a) != 1 && len(b) != 1 {
				return nil, false
			}
			if len(a) == 1 {
				return scaleTerms(b, a[0])
			}
			return scaleTerms(a, b[0])
		case '/':
			if len(b) != 1 {
				return nil, false
			}
			return divideTerms(a, b[0])
		}
	}
	return nil, false
}

// scaleTerms multiplies every term by factor (a single term).
func scaleTerms(terms []fusedTerm, factor fusedTerm) ([]fusedTerm, bool) {
	if factor.div != nil {
		return nil, false
	}
	for i := range terms {
		terms[i].coeff *= factor.coeff
		terms[i].scalars = append(terms[i].scalars, factor.scalars...)
		for _, v := range []*Tensor{factor.vec, factor.vec2} {
			if v == nil {
				continue
			}
			switch {
			case terms[i].vec == nil:
				terms[i].vec = v
			case terms[i].vec2 == nil:
				terms[i].vec2 = v
			default:
				return nil, false // three distributed factors in one term
			}
		}
	}
	return terms, true
}

// divideTerms divides every term by divisor (a single term).
func divideTerms(terms []fusedTerm, divisor fusedTerm) ([]fusedTerm, bool) {
	if divisor.div != nil || len(divisor.scalars) > 0 || divisor.coeff != 1 {
		// Scalar or constant divisors would fold into the coefficient with
		// different rounding than the simulator's elementwise divide; keep
		// those on the generic path.
		return nil, false
	}
	if divisor.vec == nil {
		return nil, false
	}
	for i := range terms {
		if terms[i].div != nil {
			return nil, false
		}
		terms[i].div = divisor.vec
	}
	return terms, true
}

// nativeReducePartial returns the native kernel of a reduction's per-tile
// partial phase, which both backends run: it fills the sink the final-combine
// kernel reads. float32 sums and dot products are reduce-partial descriptors
// whose sequential float32 accumulation matches reduceVec exactly; a product
// of two distributed double-word leaves (MPIR's r·r and b·b) folds straight
// into the sink with reduceVec's bits; the rest folds through reduceVec
// itself.
func (s *Session) nativeReducePartial(e *Expr, sh *Tensor, evalType ipu.Scalar, maxAbs bool,
	sink *graph.PartialSink, active []bool) *graph.NativeKernel {

	partials, partsF64 := sink.DW, sink.F64
	if sh != nil && evalType == ipu.DW && !maxAbs {
		if xa, xb, ok := matchProduct(e, ipu.DW); ok && xb != nil && xa.sameMapping(xb) {
			tiles, as := xa.activeLocals()
			_, bs := xb.activeLocals()
			k := graph.OpaqueKernel(func() {
				for i, tile := range tiles {
					d := dwDot(as[i], bs[i])
					partials[tile], partsF64[tile] = d, d.Float64()
				}
			}, e.leafBuffers(nil), nil)
			k.Sink = sink
			return k
		}
	}
	if sh != nil && evalType == ipu.F32 && !maxAbs {
		if xa, xb, ok := matchProduct(e, ipu.F32); ok {
			tiles, _ := xa.activeLocals()
			sa := xa.f32Segs()
			var sb [][]float32
			if xb != nil {
				sb = xb.f32Segs()
			}
			if xb == nil || len(sb) == len(sa) {
				k := graph.ReducePartialKernel(sa, sb, tiles, sink)
				k.Reads = e.leafBuffers(nil)
				return k
			}
		}
	}

	sc := &evalScratch{}
	var run func()
	if sh == nil {
		n := 1
		if leaf := e.anyLeaf(); leaf != nil {
			n = leaf.n
		}
		run = func() {
			sc.reset()
			partials[0], partsF64[0] = reduceVec(evalVec(e, -1, evalType, n, sc), maxAbs)
		}
	} else {
		var tiles []int
		for tile, a := range active {
			if a {
				tiles = append(tiles, tile)
			}
		}
		run = func() {
			for _, tile := range tiles {
				sc.reset()
				partials[tile], partsF64[tile] = reduceVec(evalVec(e, tile, evalType, sh.sizes[tile], sc), maxAbs)
			}
		}
	}
	k := graph.OpaqueKernel(run, e.leafBuffers(nil), nil)
	k.Sink = sink
	return k
}

// matchProduct matches a distributed leaf of type dt (sum) or a product of
// two distributed leaves of type dt (dot product). b is nil for the plain sum.
func matchProduct(e *Expr, dt ipu.Scalar) (a, b *Tensor, ok bool) {
	dist := func(x *Expr) *Tensor {
		if x.kind == leafTensor && !x.t.repl && x.t.dt == dt {
			return x.t
		}
		return nil
	}
	if t := dist(e); t != nil {
		return t, nil, true
	}
	if e.kind == binaryExpr && e.op == '*' {
		ta, tb := dist(e.a), dist(e.b)
		if ta != nil && tb != nil {
			return ta, tb, true
		}
	}
	return nil, nil, false
}

// dwDot is reduceVec's fold of evalVec's a∘b for double-word a and b:
// s = Add(s, Mul(a_i, b_i)) from s = 0, in element order. Add and Mul exceed
// the inlining budget, so both are spelled out with twofloat's own steps,
// operand for operand, which leaves their bits; a NaN sum is folded again
// with the functions themselves, for the reason nativeResidualExt gives.
func dwDot(a, b *graph.Buffer) twofloat.DW {
	n := len(a.Hi)
	aHi, aLo, bHi, bLo := a.Hi[:n], a.Lo[:n], b.Hi[:n], b.Lo[:n]
	var sHi, sLo float32
	for i, xh := range aHi {
		xl, yh, yl := aLo[i], bHi[i], bLo[i]
		// Mul(x, y): DWTimesDW with FMA.
		ch, cl1 := twofloat.TwoProd(xh, yh)
		cl0 := xh * yl
		cl2 := float32(math.FMA(float64(xl), float64(yh), float64(cl0)))
		ph, pl := twofloat.Fast2Sum(ch, cl1+cl2)
		// Add(s, p): AccurateDWPlusDW.
		sh, sl := twofloat.TwoSum(sHi, ph)
		th, tl := twofloat.TwoSum(sLo, pl)
		vh, vl := twofloat.Fast2Sum(sh, sl+th)
		sHi, sLo = twofloat.Fast2Sum(vh, tl+vl)
	}
	if sHi == sHi {
		return twofloat.DW{Hi: sHi, Lo: sLo}
	}
	var s twofloat.DW
	for i := range aHi {
		s = twofloat.Add(s, twofloat.Mul(twofloat.DW{Hi: aHi[i], Lo: aLo[i]}, twofloat.DW{Hi: bHi[i], Lo: bLo[i]}))
	}
	return s
}
