package tensordsl

import (
	"fmt"
	"math"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/twofloat"
)

// vec is a typed vector used while evaluating a materialized expression —
// the runtime state of the generated fused codelet. All operations are
// performed elementwise over whole local ranges, mirroring how a compiled
// codelet loops over its tile-local view.
type vec struct {
	k      ipu.Scalar
	f      []float32
	hi, lo []float32
	p      []float64
}

func newVec(k ipu.Scalar, n int) vec {
	v := vec{k: k}
	switch k {
	case ipu.F32:
		v.f = make([]float32, n)
	case ipu.DW:
		v.hi = make([]float32, n)
		v.lo = make([]float32, n)
	case ipu.F64:
		v.p = make([]float64, n)
	default:
		panic(fmt.Sprintf("tensordsl: eval type %v unsupported", k))
	}
	return v
}

func (v vec) len() int {
	switch v.k {
	case ipu.F32:
		return len(v.f)
	case ipu.DW:
		return len(v.hi)
	default:
		return len(v.p)
	}
}

func (v vec) capacity() int {
	switch v.k {
	case ipu.F32:
		return cap(v.f)
	case ipu.DW:
		return cap(v.hi)
	default:
		return cap(v.p)
	}
}

func (v vec) slice(n int) vec {
	switch v.k {
	case ipu.F32:
		v.f = v.f[:n]
	case ipu.DW:
		v.hi, v.lo = v.hi[:n], v.lo[:n]
	default:
		v.p = v.p[:n]
	}
	return v
}

// evalScratch is a per-codelet arena of intermediate vectors: operator
// results, constants, broadcast scalars and leaves converted from another
// scalar type (a leaf already of the eval type is read in place and takes no
// slot). An expression tree requests the same sequence of (type, length)
// slots on every run, so after the first execution every get is a reslice and
// the steady-state solve loop allocates nothing. Each generated codelet owns
// its scratch: codelets run concurrently across host shards but a single
// codelet never races with itself within a superstep. A native kernel, which
// evaluates its tiles one after another, shares one across them.
type evalScratch struct {
	vecs []vec
	next int
}

func (sc *evalScratch) reset() { sc.next = 0 }

// get returns a vector of eval type k and length n, reusing the slot from the
// previous run when type and capacity still fit.
func (sc *evalScratch) get(k ipu.Scalar, n int) vec {
	if sc == nil {
		return newVec(k, n)
	}
	if sc.next < len(sc.vecs) {
		if v := sc.vecs[sc.next]; v.k == k && v.capacity() >= n {
			sc.next++
			return v.slice(n)
		}
	}
	v := newVec(k, n)
	if sc.next < len(sc.vecs) {
		sc.vecs[sc.next] = v
	} else {
		sc.vecs = append(sc.vecs, v)
	}
	sc.next++
	return v
}

// evalInto evaluates e at evalType and stores the result into dst
// (converting to dst's scalar type). tile selects the local interval of
// distributed leaves; -1 evaluates in replicated context. sc (optional)
// supplies reusable intermediates.
func evalInto(e *Expr, tile int, evalType ipu.Scalar, dst *graph.Buffer, sc *evalScratch) {
	if sc != nil {
		sc.reset()
	}
	n := dst.Len()
	res := evalVec(e, tile, evalType, n, sc)
	storeVec(dst, res)
}

func evalVec(e *Expr, tile int, k ipu.Scalar, n int, sc *evalScratch) vec {
	switch e.kind {
	case leafConst:
		out := sc.get(k, n)
		out.fill(e.c)
		return out
	case leafTensor:
		return loadLeaf(e.t, tile, k, n, sc)
	case unaryExpr:
		a := evalVec(e.a, tile, k, n, sc)
		out := sc.get(k, n)
		applyUnary(e.op, out, a)
		return out
	case binaryExpr:
		a := evalVec(e.a, tile, k, n, sc)
		b := evalVec(e.b, tile, k, n, sc)
		out := sc.get(k, n)
		applyBinary(e.op, out, a, b)
		return out
	}
	panic("tensordsl: bad expression node")
}

// loadLeaf reads a tensor leaf's local data (broadcasting replicated scalars)
// converted to eval type k. A leaf already of type k is read in place, with
// no copy: every operator writes a scratch vector and evalInto stores into dst
// only after the whole tree has been read, so no leaf, dst included, is
// written while it is still an operand.
func loadLeaf(t *Tensor, tile int, k ipu.Scalar, n int, sc *evalScratch) vec {
	var src *graph.Buffer
	broadcast := false
	if t.repl {
		src = t.rbuf
		broadcast = t.n == 1 && n != 1
	} else {
		if tile < 0 {
			panic(fmt.Sprintf("tensordsl: distributed leaf %q in replicated context", t.Name))
		}
		src = t.bufs[tile]
	}
	if broadcast {
		out := sc.get(k, n)
		out.fill(src.Get(0))
		// Exact broadcast for DW scalars (fill() rounds through float64,
		// which is lossless for DW anyway; keep hi/lo verbatim).
		if k == ipu.DW && src.Scalar == ipu.DW {
			for i := range out.hi {
				out.hi[i], out.lo[i] = src.Hi[0], src.Lo[0]
			}
		}
		return out
	}
	if src.Len() != n {
		panic(fmt.Sprintf("tensordsl: leaf %q local length %d, want %d", t.Name, src.Len(), n))
	}
	if src.Scalar == k {
		return vec{k: k, f: src.F32, hi: src.Hi, lo: src.Lo, p: src.F64}
	}
	out := sc.get(k, n)
	convertBufInto(out, src)
	return out
}

func (v vec) fill(c float64) {
	switch v.k {
	case ipu.F32:
		f := float32(c)
		for i := range v.f {
			v.f[i] = f
		}
	case ipu.DW:
		d := twofloat.FromFloat64(c)
		for i := range v.hi {
			v.hi[i], v.lo[i] = d.Hi, d.Lo
		}
	case ipu.F64:
		for i := range v.p {
			v.p[i] = c
		}
	}
}

// convertBufInto converts a source buffer into the eval vector.
func convertBufInto(out vec, src *graph.Buffer) {
	switch out.k {
	case ipu.F32:
		switch src.Scalar {
		case ipu.F32:
			copy(out.f, src.F32)
		case ipu.DW:
			for i := range out.f {
				out.f[i] = twofloat.DW{Hi: src.Hi[i], Lo: src.Lo[i]}.Float32()
			}
		case ipu.F64:
			for i := range out.f {
				out.f[i] = float32(src.F64[i])
			}
		default:
			for i := range out.f {
				out.f[i] = float32(src.Get(i))
			}
		}
	case ipu.DW:
		switch src.Scalar {
		case ipu.F32:
			for i := range out.hi {
				out.hi[i], out.lo[i] = src.F32[i], 0 // exact widen
			}
		case ipu.DW:
			copy(out.hi, src.Hi)
			copy(out.lo, src.Lo)
		default:
			for i := range out.hi {
				d := twofloat.FromFloat64(src.Get(i))
				out.hi[i], out.lo[i] = d.Hi, d.Lo
			}
		}
	case ipu.F64:
		switch src.Scalar {
		case ipu.F64:
			copy(out.p, src.F64)
		default:
			for i := range out.p {
				out.p[i] = src.Get(i)
			}
		}
	}
}

// storeVec writes the eval result into the destination buffer, rounding to
// its scalar type.
func storeVec(dst *graph.Buffer, v vec) {
	switch dst.Scalar {
	case ipu.F32:
		switch v.k {
		case ipu.F32:
			copy(dst.F32, v.f)
		case ipu.DW:
			for i := range dst.F32 {
				dst.F32[i] = twofloat.DW{Hi: v.hi[i], Lo: v.lo[i]}.Float32()
			}
		case ipu.F64:
			for i := range dst.F32 {
				dst.F32[i] = float32(v.p[i])
			}
		}
	case ipu.DW:
		switch v.k {
		case ipu.DW:
			copy(dst.Hi, v.hi)
			copy(dst.Lo, v.lo)
		case ipu.F32:
			for i := range dst.Hi {
				dst.Hi[i], dst.Lo[i] = v.f[i], 0
			}
		case ipu.F64:
			for i := range dst.Hi {
				d := twofloat.FromFloat64(v.p[i])
				dst.Hi[i], dst.Lo[i] = d.Hi, d.Lo
			}
		}
	case ipu.F64:
		switch v.k {
		case ipu.F64:
			copy(dst.F64, v.p)
		case ipu.F32:
			for i := range dst.F64 {
				dst.F64[i] = float64(v.f[i])
			}
		case ipu.DW:
			for i := range dst.F64 {
				dst.F64[i] = twofloat.DW{Hi: v.hi[i], Lo: v.lo[i]}.Float64()
			}
		}
	default:
		panic(fmt.Sprintf("tensordsl: cannot store into %v buffer", dst.Scalar))
	}
}

// applyUnary and applyBinary cut their operands to len(out) up front, so the
// element loops run without bounds checks.
func applyUnary(op byte, out, a vec) {
	switch out.k {
	case ipu.F32:
		o, ax := out.f, a.f[:len(out.f)]
		for i := range o {
			x := ax[i]
			switch op {
			case 'n':
				o[i] = -x
			case 'a':
				if x < 0 {
					x = -x
				}
				o[i] = x
			case 'q':
				o[i] = float32(math.Sqrt(float64(x)))
			}
		}
	case ipu.DW:
		oHi, n := out.hi, len(out.hi)
		oLo, aHi, aLo := out.lo[:n], a.hi[:n], a.lo[:n]
		for i := range oHi {
			x := twofloat.DW{Hi: aHi[i], Lo: aLo[i]}
			var r twofloat.DW
			switch op {
			case 'n':
				r = x.Neg()
			case 'a':
				r = x.Abs()
			case 'q':
				r = twofloat.Sqrt(x)
			}
			oHi[i], oLo[i] = r.Hi, r.Lo
		}
	case ipu.F64:
		o, ax := out.p, a.p[:len(out.p)]
		for i := range o {
			x := ax[i]
			switch op {
			case 'n':
				o[i] = -x
			case 'a':
				o[i] = math.Abs(x)
			case 'q':
				o[i] = math.Sqrt(x)
			}
		}
	}
}

func applyBinary(op byte, out, a, b vec) {
	switch out.k {
	case ipu.F32:
		o, x, y := out.f, a.f[:len(out.f)], b.f[:len(out.f)]
		switch op {
		case '+':
			for i := range o {
				o[i] = x[i] + y[i]
			}
		case '-':
			for i := range o {
				o[i] = x[i] - y[i]
			}
		case '*':
			for i := range o {
				o[i] = x[i] * y[i]
			}
		case '/':
			for i := range o {
				o[i] = x[i] / y[i]
			}
		}
	case ipu.DW:
		oHi, n := out.hi, len(out.hi)
		oLo, aHi, aLo, bHi, bLo := out.lo[:n], a.hi[:n], a.lo[:n], b.hi[:n], b.lo[:n]
		for i := range oHi {
			x := twofloat.DW{Hi: aHi[i], Lo: aLo[i]}
			y := twofloat.DW{Hi: bHi[i], Lo: bLo[i]}
			var r twofloat.DW
			switch op {
			case '+':
				r = twofloat.Add(x, y)
			case '-':
				r = twofloat.Sub(x, y)
			case '*':
				r = twofloat.Mul(x, y)
			case '/':
				r = twofloat.Div(x, y)
			}
			oHi[i], oLo[i] = r.Hi, r.Lo
		}
	case ipu.F64:
		o, x, y := out.p, a.p[:len(out.p)], b.p[:len(out.p)]
		switch op {
		case '+':
			for i := range o {
				o[i] = x[i] + y[i]
			}
		case '-':
			for i := range o {
				o[i] = x[i] - y[i]
			}
		case '*':
			for i := range o {
				o[i] = x[i] * y[i]
			}
		case '/':
			for i := range o {
				o[i] = x[i] / y[i]
			}
		}
	}
}
