package graph

import (
	"sort"
	"strconv"
	"strings"

	"ipusparse/internal/twofloat"
)

// This file holds the native kernel descriptor and the one table of host
// loops behind it. A compute set that has a flat host-speed implementation
// carries a NativeKernel; the cycle-accurate engine ignores it, the native
// backend runs it instead of the vertices. The three fusable kinds (SpMV,
// fused float32 assign, float32 sum/dot partial) expose their operands as
// per-block slice tables, so the native backend's peephole pass can hand an
// adjacent run of them to FuseKernels and get one loop that finishes every
// statement for element j before it touches j+1, with produced values kept in
// registers. Every other kernel is opaque: the pass only needs to know which
// buffers it writes, or that it does not know (Barrier).

// KernelKind classifies a native kernel for the fusion pass.
type KernelKind uint8

const (
	// KernelOpaque is a kernel the pass cannot look into: ILU/DILU sweeps,
	// extended residuals, replicated scalar assigns, evaluator fallbacks,
	// reduction combines.
	KernelOpaque KernelKind = iota
	// KernelSpMV is y = A·x over the system's CSR block table.
	KernelSpMV
	// KernelAssign is dst = Σ coeff·vec·vec2/div in float32.
	KernelAssign
	// KernelReducePartial is the per-tile float32 sum or dot partial of a
	// reduction.
	KernelReducePartial
)

// NativeKernel describes the host-native implementation of one compute set.
// Run produces the same memory effects as running every vertex of the set.
// Exactly the payload fields the kind needs are set.
type NativeKernel struct {
	Kind KernelKind
	Run  func() // the unfused kernel

	// Reads and Writes list the device buffers the kernel touches. Barrier
	// marks a kernel whose set is not known: nothing moves across it.
	Reads, Writes []*Buffer
	Barrier       bool

	// Sink is the partial array of the reduction the kernel belongs to: a
	// reduce-partial kernel fills it, the reduction's combine kernel reads it.
	Sink *PartialSink

	// Statement payload, one entry per block of the block table (the
	// populated tiles in ascending order).
	Dst    [][]float32 // assign: destination
	Terms  []Term      // assign: the summed terms, left to right
	A, B   [][]float32 // reduce partial: Σ A∘B, or Σ A when B is nil
	Tiles  []int       // reduce partial: the sink slot of each block
	CSR    []CSRBlock  // SpMV: matrix block and operands
	Gather []float32   // SpMV: [owned | halo] scratch, sized for the largest block
}

// PartialSink is where a reduction's per-tile partials land, indexed by tile,
// in both views the combine step reads.
type PartialSink struct {
	DW  []twofloat.DW
	F64 []float64
}

func (s *PartialSink) put(tile int, sum float32) {
	s.DW[tile] = twofloat.FromFloat32(sum)
	s.F64[tile] = float64(sum)
}

// Term is one additive term of a fused assign: Coeff times the replicated
// float32 scalars (read when the kernel runs: solver coefficients change
// between invocations) times Vec times Vec2 over Div, every table optional.
// Vec2 is only set when Vec is.
type Term struct {
	Coeff          float64
	Scalars        []*Buffer
	Vec, Vec2, Div [][]float32
}

func (t *Term) coeff() float32 {
	c := float32(t.Coeff)
	for _, sb := range t.Scalars {
		c *= sb.F32[0]
	}
	return c
}

// CSRBlock is one block of y = A·x: the tile's CSR arrays with columns
// indexing the gathered [owned | halo] vector, and the three operand slices.
type CSRBlock struct {
	RowPtr, Cols []int32
	Diag, Vals   []float32
	X, H, Y      []float32 // owned source, halo source, destination
}

// OpaqueKernel describes a kernel the fusion pass cannot look into but whose
// read and write sets are known.
func OpaqueKernel(run func(), reads, writes []*Buffer) *NativeKernel {
	return &NativeKernel{Run: run, Reads: reads, Writes: writes}
}

// BarrierKernel describes a kernel with an unknown read/write set.
func BarrierKernel(run func()) *NativeKernel {
	return &NativeKernel{Run: run, Barrier: true}
}

// SpMVKernel describes y = A·x over the block table. Rows run in the
// codelets' order with the codelets' per-row summation order, so results are
// bit-identical to the worker codelets.
func SpMVKernel(csr []CSRBlock, gather []float32) *NativeKernel {
	return bind(&NativeKernel{Kind: KernelSpMV, CSR: csr, Gather: gather})
}

// AssignKernel describes dst = Σ terms. Every loop reads all of its operands
// at index j before it stores dst[j], so dst may alias any term.
func AssignKernel(dst [][]float32, terms []Term) *NativeKernel {
	return bind(&NativeKernel{Kind: KernelAssign, Dst: dst, Terms: terms})
}

// ReducePartialKernel describes the float32 partial Σ a∘b (Σ a when b is nil)
// per block into sink[tiles[block]]: sequential float32 accumulation, product
// rounded before the add.
func ReducePartialKernel(a, b [][]float32, tiles []int, sink *PartialSink) *NativeKernel {
	return bind(&NativeKernel{Kind: KernelReducePartial, A: a, B: b, Tiles: tiles, Sink: sink})
}

// bind sets Run to the statement's own loop: the base case of fusion.
func bind(k *NativeKernel) *NativeKernel {
	switch {
	case k.Kind == KernelSpMV:
		k.Run = spmvLoop(k)
	case k.Kind == KernelReducePartial:
		k.Run = partialLoop(k)
	case len(k.Terms) == 1:
		k.Run = oneTermLoop(k)
	case len(k.Terms) == 2:
		k.Run = twoTermLoop(k)
	default:
		k.Run = sumLoop(k)
	}
	return k
}

// FuseKernels returns one loop executing two or more statements in order,
// element by element, and the signature it was looked up under; nil when the
// statements do not share a block table or the table has no loop of that
// signature.
//
// A signature spells each statement and where each vector operand comes from:
// m is memory, vK the value statement K of the run produced for the same
// element (kept in a register), c a term without vector. An assign is its
// terms joined by +, a partial is dot(..).
func FuseKernels(stmts []*NativeKernel) (func(), string) {
	if len(stmts) < 2 || !sameBlocks(stmts) {
		return nil, ""
	}
	sig := signature(stmts)
	if build := fusedLoops[sig]; build != nil {
		return build(stmts), sig
	}
	return nil, sig
}

// blockLen returns the length of block i of a fusable statement.
func (k *NativeKernel) blockLen(i int) int {
	switch k.Kind {
	case KernelSpMV:
		return len(k.CSR[i].Y)
	case KernelAssign:
		return len(k.Dst[i])
	default:
		return len(k.A[i])
	}
}

func (k *NativeKernel) blocks() int {
	switch k.Kind {
	case KernelSpMV:
		return len(k.CSR)
	case KernelAssign:
		return len(k.Dst)
	case KernelReducePartial:
		return len(k.A)
	}
	return -1
}

func sameBlocks(stmts []*NativeKernel) bool {
	n := stmts[0].blocks()
	if n <= 0 {
		return false
	}
	for _, k := range stmts[1:] {
		if k.blocks() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if k.blockLen(i) != stmts[0].blockLen(i) {
				return false
			}
		}
	}
	return true
}

// sameVec reports whether block table v holds the tensor whose first block is
// first (blocks are never empty, so the first element's address identifies
// the storage).
func sameVec(v [][]float32, first []float32) bool {
	return len(v) > 0 && len(v[0]) > 0 && len(first) > 0 && &v[0][0] == &first[0]
}

func signature(stmts []*NativeKernel) string {
	var sb strings.Builder
	for i, k := range stmts {
		if i > 0 {
			sb.WriteByte(' ')
		}
		// src names where statement i finds operand v.
		src := func(v [][]float32) string {
			for p := i - 1; p >= 0; p-- {
				switch prev := stmts[p]; {
				case prev.Kind == KernelAssign && sameVec(v, prev.Dst[0]):
					return "v" + strconv.Itoa(p)
				case prev.Kind == KernelSpMV && sameVec(v, prev.CSR[0].Y):
					return "v" + strconv.Itoa(p)
				}
			}
			return "m"
		}
		switch k.Kind {
		case KernelSpMV:
			sb.WriteString("spmv")
		case KernelAssign:
			for ti, t := range k.Terms {
				if ti > 0 {
					sb.WriteByte('+')
				}
				switch {
				case t.Vec != nil:
					sb.WriteString(src(t.Vec))
					if t.Vec2 != nil {
						sb.WriteString("*" + src(t.Vec2))
					}
				default:
					sb.WriteByte('c')
				}
				if t.Div != nil {
					sb.WriteString("/" + src(t.Div))
				}
			}
		case KernelReducePartial:
			sb.WriteString("dot(" + src(k.A))
			if k.B != nil {
				sb.WriteString("*" + src(k.B))
			}
			sb.WriteByte(')')
		}
	}
	return sb.String()
}

// fusedLoops is the one table of fused loops, keyed by statement signature.
// Its base cases, the single statements, are the loops bind hands out.
var fusedLoops = map[string]func([]*NativeKernel) func(){
	// CG's q = Ap ; p·q and PBiCGStab's v = Ay ; r0·v
	"spmv dot(m*v0)": spmvDotLoop,
	// PBiCGStab: t = Az ; t·s ; t·t
	"spmv dot(v0*m) dot(v0*v0)": spmvTwoDotLoop,
	// CG: x += αp ; r −= αq ; z = invd∘r ; r·z ; r·r
	"m+m m+m v1*m dot(v1*v2) dot(v1*v1)": cgUpdateLoop,
	// PBiCGStab: x = x + αy + ωz ; r = s − ωt ; r·r
	"m+m+m m+m dot(v1*v1)": bicgUpdateLoop,
}

// FusedSignatures lists the signatures of the table, sorted.
func FusedSignatures() []string {
	out := make([]string, 0, len(fusedLoops))
	for sig := range fusedLoops {
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// gather fills the scratch with the block's [owned | halo] source vector, so
// that the row loops read x[cols[k]] with no owned/halo branch.
func (b *CSRBlock) gather(scratch []float32) []float32 {
	xh := scratch[:len(b.X)+len(b.H)]
	copy(xh, b.X)
	copy(xh[len(b.X):], b.H)
	return xh
}

// The three SpMV loops cut every row-indexed slice to the row count and the
// columns to the values before the sweep: the row loop then carries neither
// bounds checks nor slice lengths. That is what keeps the entry loop's
// operands in registers once dot products ride along; with them spilled a
// rider costs more than the standalone dot it replaces.

func spmvLoop(st *NativeKernel) func() {
	blocks, scratch := st.CSR, st.Gather
	return func() {
		for bi := range blocks {
			b := &blocks[bi]
			xh, y, vals := b.gather(scratch), b.Y, b.Vals
			n := len(y)
			rowPtr, diag, xo, cols := b.RowPtr[:n+1], b.Diag[:n], xh[:n], b.Cols[:len(vals)]
			k := rowPtr[0]
			for i := range y {
				s := diag[i] * xo[i]
				for end := rowPtr[i+1]; k < end; k++ {
					s += vals[k] * xh[cols[k]]
				}
				y[i] = s
			}
		}
	}
}

// spmvDotLoop is y = A·x with one partial o·y riding along: CG's p·Ap (o is
// the source itself), PBiCGStab's r0·v.
func spmvDotLoop(s []*NativeKernel) func() {
	blocks, scratch, d := s[0].CSR, s[0].Gather, s[1]
	return func() {
		for bi := range blocks {
			b := &blocks[bi]
			xh, y, vals := b.gather(scratch), b.Y, b.Vals
			n := len(y)
			rowPtr, diag, xo, cols := b.RowPtr[:n+1], b.Diag[:n], xh[:n], b.Cols[:len(vals)]
			o := d.A[bi][:n]
			var sum float32
			k := rowPtr[0]
			for i := range y {
				s := diag[i] * xo[i]
				for end := rowPtr[i+1]; k < end; k++ {
					s += vals[k] * xh[cols[k]]
				}
				y[i] = s
				sum += float32(o[i] * s)
			}
			d.Sink.put(d.Tiles[bi], sum)
		}
	}
}

// spmvTwoDotLoop is y = A·x with y·o and y·y riding along (PBiCGStab's t·s
// and t·t).
func spmvTwoDotLoop(s []*NativeKernel) func() {
	blocks, scratch, d0, d1 := s[0].CSR, s[0].Gather, s[1], s[2]
	return func() {
		for bi := range blocks {
			b := &blocks[bi]
			xh, y, vals := b.gather(scratch), b.Y, b.Vals
			n := len(y)
			rowPtr, diag, xo, cols := b.RowPtr[:n+1], b.Diag[:n], xh[:n], b.Cols[:len(vals)]
			o := d0.B[bi][:n]
			var sum0, sum1 float32
			k := rowPtr[0]
			for i := range y {
				s := diag[i] * xo[i]
				for end := rowPtr[i+1]; k < end; k++ {
					s += vals[k] * xh[cols[k]]
				}
				y[i] = s
				sum0 += float32(s * o[i])
				sum1 += float32(s * s)
			}
			d0.Sink.put(d0.Tiles[bi], sum0)
			d1.Sink.put(d1.Tiles[bi], sum1)
		}
	}
}

func oneTermLoop(k *NativeKernel) func() {
	dst, tm := k.Dst, &k.Terms[0]
	vec, vec2, div := tm.Vec, tm.Vec2, tm.Div
	return func() {
		c := tm.coeff()
		for bi, d := range dst {
			switch {
			case vec2 != nil && div == nil:
				// Elementwise product: d = c * x ∘ y (Jacobi apply).
				x, y := vec[bi], vec2[bi]
				for j := range d {
					d[j] = c * x[j] * y[j]
				}
			case vec2 != nil:
				x, y, dv := vec[bi], vec2[bi], div[bi]
				for j := range d {
					d[j] = c * x[j] * y[j] / dv[j]
				}
			case vec != nil && div != nil:
				x, dv := vec[bi], div[bi]
				for j := range d {
					d[j] = c * x[j] / dv[j]
				}
			case vec != nil:
				x := vec[bi]
				for j := range d {
					d[j] = c * x[j]
				}
			case div != nil:
				dv := div[bi]
				for j := range d {
					d[j] = c / dv[j]
				}
			default:
				for j := range d {
					d[j] = c
				}
			}
		}
	}
}

func twoTermLoop(k *NativeKernel) func() {
	dst, t0, t1 := k.Dst, &k.Terms[0], &k.Terms[1]
	axpy := t0.Vec != nil && t1.Vec != nil &&
		t0.Vec2 == nil && t1.Vec2 == nil && t0.Div == nil && t1.Div == nil
	return func() {
		c0, c1 := t0.coeff(), t1.coeff()
		for bi, d := range dst {
			if axpy {
				// The axpy family: d = c0*x + c1*y.
				x, y := t0.Vec[bi], t1.Vec[bi]
				for j := range d {
					d[j] = c0*x[j] + c1*y[j]
				}
				continue
			}
			for j := range d {
				d[j] = t0.at(c0, bi, j) + t1.at(c1, bi, j)
			}
		}
	}
}

// at evaluates the term at element j of block bi with coefficient c.
func (t *Term) at(c float32, bi, j int) float32 {
	if t.Vec != nil {
		c *= t.Vec[bi][j]
	}
	if t.Vec2 != nil {
		c *= t.Vec2[bi][j]
	}
	if t.Div != nil {
		c /= t.Div[bi][j]
	}
	return c
}

// sumLoop is the N-term loop (N > 2), summed left to right in float32. Three
// plain vector terms — PBiCGStab's p = r + β(p − ωv) and x = x + αy + ωz —
// get an unrolled loop.
func sumLoop(k *NativeKernel) func() {
	dst, terms := k.Dst, k.Terms
	plain3 := len(terms) == 3
	for i := range terms {
		plain3 = plain3 && terms[i].Vec != nil && terms[i].Vec2 == nil && terms[i].Div == nil
	}
	coeffs := make([]float32, len(terms))
	return func() {
		for i := range terms {
			coeffs[i] = terms[i].coeff()
		}
		for bi, d := range dst {
			if plain3 {
				c0, c1, c2 := coeffs[0], coeffs[1], coeffs[2]
				x, y, z := terms[0].Vec[bi], terms[1].Vec[bi], terms[2].Vec[bi]
				for j := range d {
					d[j] = c0*x[j] + c1*y[j] + c2*z[j]
				}
				continue
			}
			for j := range d {
				var s float32
				for i := range terms {
					s += terms[i].at(coeffs[i], bi, j)
				}
				d[j] = s
			}
		}
	}
}

func partialLoop(k *NativeKernel) func() {
	return func() {
		for bi, x := range k.A {
			var sum float32
			if k.B == nil {
				for _, v := range x {
					sum += v
				}
			} else {
				y := k.B[bi]
				for j := range x {
					sum += float32(x[j] * y[j])
				}
			}
			k.Sink.put(k.Tiles[bi], sum)
		}
	}
}

// cgUpdateLoop is CG's vector update in one sweep: two axpys, the Jacobi
// product of the fresh residual and both of its dots. Like the SpMV loops it
// cuts every operand to the block length first.
func cgUpdateLoop(s []*NativeKernel) func() {
	ax, ar, az, d0, d1 := s[0], s[1], s[2], s[3], s[4]
	return func() {
		cx0, cx1 := ax.Terms[0].coeff(), ax.Terms[1].coeff()
		cr0, cr1 := ar.Terms[0].coeff(), ar.Terms[1].coeff()
		cz := az.Terms[0].coeff()
		for bi, x := range ax.Dst {
			n := len(x)
			x0, x1 := ax.Terms[0].Vec[bi][:n], ax.Terms[1].Vec[bi][:n]
			r, r0, r1 := ar.Dst[bi][:n], ar.Terms[0].Vec[bi][:n], ar.Terms[1].Vec[bi][:n]
			z, w := az.Dst[bi][:n], az.Terms[0].Vec2[bi][:n]
			var sum0, sum1 float32
			for j := range x {
				x[j] = cx0*x0[j] + cx1*x1[j]
				rj := cr0*r0[j] + cr1*r1[j]
				r[j] = rj
				zj := cz * rj * w[j]
				z[j] = zj
				sum0 += float32(rj * zj)
				sum1 += float32(rj * rj)
			}
			d0.Sink.put(d0.Tiles[bi], sum0)
			d1.Sink.put(d1.Tiles[bi], sum1)
		}
	}
}

// bicgUpdateLoop is PBiCGStab's closing update in one sweep: the three-term
// solution update, the residual axpy and the residual's dot.
func bicgUpdateLoop(s []*NativeKernel) func() {
	ax, ar, d := s[0], s[1], s[2]
	return func() {
		cx0, cx1, cx2 := ax.Terms[0].coeff(), ax.Terms[1].coeff(), ax.Terms[2].coeff()
		cr0, cr1 := ar.Terms[0].coeff(), ar.Terms[1].coeff()
		for bi, x := range ax.Dst {
			n := len(x)
			x0, x1, x2 := ax.Terms[0].Vec[bi][:n], ax.Terms[1].Vec[bi][:n], ax.Terms[2].Vec[bi][:n]
			r, r0, r1 := ar.Dst[bi][:n], ar.Terms[0].Vec[bi][:n], ar.Terms[1].Vec[bi][:n]
			var sum float32
			for j := range x {
				x[j] = cx0*x0[j] + cx1*x1[j] + cx2*x2[j]
				rj := cr0*r0[j] + cr1*r1[j]
				r[j] = rj
				sum += float32(rj * rj)
			}
			d.Sink.put(d.Tiles[bi], sum)
		}
	}
}
