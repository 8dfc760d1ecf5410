package tensordsl

import (
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/twofloat"
)

// This file lowers materialized expressions into flat host-native kernels —
// the ComputeSet.NativeKernel implementations the native backend executes
// instead of per-tile codelets. A kernel makes the same memory effects as
// running every vertex of the set but with no per-tile dispatch, no cycle
// model and zero steady-state allocation. float32 expressions that normalize
// to a sum of coeff * vec * vec / vec terms (axpy, scale, elementwise product
// and divide, any number of terms) compile to fused loops over precomputed
// slice tables; everything else falls back to a serial scratch-arena
// evaluation that is still allocation-free after the first run.
//
// Kernels guarantee residual-level agreement with the simulator, not bit
// identity: a fused loop may associate roundings differently than the
// codelet evaluation tree. Cross-backend tests assert converged residuals.

// nativeAssign returns the native kernel for materializing e into t.
func (t *Tensor) nativeAssign(e *Expr, evalType ipu.Scalar) func() {
	if t.repl {
		// Replicated results are written once; the per-tile redundancy of the
		// simulated machine has no native equivalent.
		sc := &evalScratch{}
		return func() { evalInto(e, -1, evalType, t.rbuf, sc) }
	}
	if k := t.fusedAssign(e, evalType); k != nil {
		return k
	}
	// Generic fallback: evaluate per tile through a reused scratch arena.
	sc := &evalScratch{}
	tiles, bufs := t.activeLocals()
	return func() {
		for i, buf := range bufs {
			evalInto(e, tiles[i], evalType, buf, sc)
		}
	}
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

// fusedAssign compiles dst = e into a fused float32 loop when the expression
// normalizes to a sum of terms of the fusedTerm shape. Every loop reads all of
// its operands at index j before it stores d[j], so dst may alias any term
// (x = x + αy + ωz). Returns nil when the shape (or any dtype) falls outside
// the fast path.
func (t *Tensor) fusedAssign(e *Expr, evalType ipu.Scalar) func() {
	if evalType != ipu.F32 || t.dt != ipu.F32 {
		return nil
	}
	terms, ok := normalizeTerms(e)
	if !ok || len(terms) == 0 {
		return nil
	}

	_, dsts := t.activeLocals()
	dst := f32Segs(dsts)
	segTable := func(src *Tensor) ([][]float32, bool) {
		if src == nil {
			return nil, true
		}
		_, bufs := src.activeLocals()
		if len(bufs) != len(dsts) {
			return nil, false
		}
		return f32Segs(bufs), true
	}
	segs := make([][][]float32, len(terms)) // term -> tile -> vec segment
	segs2 := make([][][]float32, len(terms))
	divs := make([][][]float32, len(terms))
	for i, tm := range terms {
		var ok bool
		if segs[i], ok = segTable(tm.vec); !ok {
			return nil
		}
		if segs2[i], ok = segTable(tm.vec2); !ok {
			return nil
		}
		if divs[i], ok = segTable(tm.div); !ok {
			return nil
		}
	}

	if len(terms) == 1 {
		tm := terms[0]
		return func() {
			c := tm.runtimeCoeff()
			for ti, d := range dst {
				switch {
				case segs2[0] != nil && divs[0] == nil:
					// Elementwise product: d = c * x ∘ y (Jacobi apply).
					x, y := segs[0][ti], segs2[0][ti]
					for j := range d {
						d[j] = c * x[j] * y[j]
					}
				case segs[0] != nil && segs2[0] == nil && divs[0] != nil:
					x, dv := segs[0][ti], divs[0][ti]
					for j := range d {
						d[j] = c * x[j] / dv[j]
					}
				case segs[0] != nil && segs2[0] == nil:
					x := segs[0][ti]
					for j := range d {
						d[j] = c * x[j]
					}
				case segs[0] == nil && divs[0] != nil:
					dv := divs[0][ti]
					for j := range d {
						d[j] = c / dv[j]
					}
				case segs[0] == nil && segs2[0] == nil:
					for j := range d {
						d[j] = c
					}
				default:
					// c * x ∘ y / dv
					x, y, dv := segs[0][ti], segs2[0][ti], divs[0][ti]
					for j := range d {
						d[j] = c * x[j] * y[j] / dv[j]
					}
				}
			}
		}
	}
	if len(terms) > 2 {
		return fusedSum(dst, terms, segs, segs2, divs)
	}
	t1, t2 := terms[0], terms[1]
	return func() {
		c1, c2 := t1.runtimeCoeff(), t2.runtimeCoeff()
		for ti, d := range dst {
			switch {
			case segs[0] != nil && segs[1] != nil &&
				segs2[0] == nil && segs2[1] == nil && divs[0] == nil && divs[1] == nil:
				// The axpy family: d = c1*x + c2*y.
				x, y := segs[0][ti], segs[1][ti]
				for j := range d {
					d[j] = c1*x[j] + c2*y[j]
				}
			default:
				for j := range d {
					a, b := c1, c2
					if segs[0] != nil {
						a *= segs[0][ti][j]
					}
					if segs2[0] != nil {
						a *= segs2[0][ti][j]
					}
					if divs[0] != nil {
						a /= divs[0][ti][j]
					}
					if segs[1] != nil {
						b *= segs[1][ti][j]
					}
					if segs2[1] != nil {
						b *= segs2[1][ti][j]
					}
					if divs[1] != nil {
						b /= divs[1][ti][j]
					}
					d[j] = a + b
				}
			}
		}
	}
}

// fusedSum is the N-term loop (N > 2): d = Σ coeff_i * vec_i * vec2_i / div_i,
// summed left to right in float32. Three plain vector terms — PBiCGStab's
// p = r + β(p − ωv) and x = x + αy + ωz — get an unrolled loop.
func fusedSum(dst [][]float32, terms []fusedTerm, segs, segs2, divs [][][]float32) func() {
	plain3 := len(terms) == 3
	for i := range terms {
		plain3 = plain3 && segs[i] != nil && segs2[i] == nil && divs[i] == nil
	}
	coeffs := make([]float32, len(terms))
	return func() {
		for i := range terms {
			coeffs[i] = terms[i].runtimeCoeff()
		}
		for ti, d := range dst {
			if plain3 {
				c0, c1, c2 := coeffs[0], coeffs[1], coeffs[2]
				x, y, z := segs[0][ti], segs[1][ti], segs[2][ti]
				for j := range d {
					d[j] = c0*x[j] + c1*y[j] + c2*z[j]
				}
				continue
			}
			for j := range d {
				var s float32
				for i, a := range coeffs {
					if segs[i] != nil {
						a *= segs[i][ti][j]
					}
					if segs2[i] != nil {
						a *= segs2[i][ti][j]
					}
					if divs[i] != nil {
						a /= divs[i][ti][j]
					}
					s += a
				}
				d[j] = s
			}
		}
	}
}

// runtimeCoeff folds the term's constant with its replicated-scalar factors,
// which update between kernel invocations (solver coefficients like alpha).
func (tm *fusedTerm) runtimeCoeff() float32 {
	c := float32(tm.coeff)
	for _, sb := range tm.scalars {
		c *= sb.F32[0]
	}
	return c
}

func f32Segs(bufs []*graph.Buffer) [][]float32 {
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
// partial phase: it fills the same partials/partsF64 host arrays the partial
// codelets write, so the final-combine kernel and every host reader see
// identical state. float32 sums and dot products take a fused path whose
// sequential float32 accumulation matches reduceVec exactly.
func (s *Session) nativeReducePartial(e *Expr, sh *Tensor, evalType ipu.Scalar, maxAbs bool,
	partials []twofloat.DW, partsF64 []float64, active []bool) func() {

	if sh != nil && evalType == ipu.F32 && !maxAbs {
		if xa, xb, ok := matchF32Product(e); ok {
			tiles, bufs := xa.activeLocals()
			sa := f32Segs(bufs)
			var sb [][]float32
			if xb != nil {
				_, bufsB := xb.activeLocals()
				if len(bufsB) != len(bufs) {
					goto generic
				}
				sb = f32Segs(bufsB)
			}
			return func() {
				for i, tile := range tiles {
					var sum float32
					if sb == nil {
						for _, v := range sa[i] {
							sum += v
						}
					} else {
						x, y := sa[i], sb[i]
						for j := range x {
							sum += x[j] * y[j]
						}
					}
					partials[tile] = twofloat.FromFloat32(sum)
					partsF64[tile] = float64(sum)
				}
			}
		}
	}

generic:
	sc := &evalScratch{}
	if sh == nil {
		n := 1
		if leaf := e.anyLeaf(); leaf != nil {
			n = leaf.n
		}
		return func() {
			sc.reset()
			partials[0], partsF64[0] = reduceVec(evalVec(e, -1, evalType, n, sc), maxAbs)
		}
	}
	var tiles []int
	for tile, a := range active {
		if a {
			tiles = append(tiles, tile)
		}
	}
	return func() {
		for _, tile := range tiles {
			sc.reset()
			partials[tile], partsF64[tile] = reduceVec(evalVec(e, tile, evalType, sh.sizes[tile], sc), maxAbs)
		}
	}
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
