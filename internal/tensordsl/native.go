package tensordsl

import (
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// This file lowers materialized expressions into native kernel descriptors —
// the ComputeSet.NativeKernel the native backend executes instead of per-tile
// codelets. A kernel makes the same memory effects as running every vertex of
// the set but with no per-tile dispatch, no cycle model and zero steady-state
// allocation. float32 expressions that normalize to a sum of
// coeff * vec * vec / vec terms (axpy, scale, elementwise product and divide,
// any number of terms) become assign descriptors over precomputed slice
// tables, whose loops live in package graph's table and fuse with their
// neighbours; everything else is an opaque serial scratch-arena evaluation
// that is still allocation-free after the first run.
//
// Kernels guarantee residual-level agreement with the simulator, not bit
// identity: a fused loop may associate roundings differently than the
// codelet evaluation tree. Cross-backend tests assert converged residuals.

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
// partial phase: it fills the same sink the partial codelets write, so the
// final-combine kernel and every host reader see identical state. float32
// sums and dot products are reduce-partial descriptors whose sequential
// float32 accumulation matches reduceVec exactly.
func (s *Session) nativeReducePartial(e *Expr, sh *Tensor, evalType ipu.Scalar, maxAbs bool,
	sink *graph.PartialSink, active []bool) *graph.NativeKernel {

	if sh != nil && evalType == ipu.F32 && !maxAbs {
		if xa, xb, ok := matchF32Product(e); ok {
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

	partials, partsF64 := sink.DW, sink.F64
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

// matchF32Product matches a distributed float32 leaf (sum) or a product of
// two distributed float32 leaves (dot product). b is nil for the plain sum.
func matchF32Product(e *Expr) (a, b *Tensor, ok bool) {
	distF32 := func(x *Expr) *Tensor {
		if x.kind == leafTensor && !x.t.repl && x.t.dt == ipu.F32 {
			return x.t
		}
		return nil
	}
	if t := distF32(e); t != nil {
		return t, nil, true
	}
	if e.kind == binaryExpr && e.op == '*' {
		ta, tb := distF32(e.a), distF32(e.b)
		if ta != nil && tb != nil {
			return ta, tb, true
		}
	}
	return nil, nil, false
}
