package graph

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"ipusparse/internal/twofloat"
)

// This file holds the native kernel descriptor and the one table of host
// loops behind it. A compute set that has a flat host-speed implementation
// carries a NativeKernel; the native backend runs it instead of the vertices,
// and the cycle-accurate engine runs it for a billed set (see Codelet). The
// three fusable kinds (SpMV, fused float32 assign, float32 sum/dot partial)
// expose their operands as per-block slice tables, so the native backend's
// peephole pass can hand an adjacent run of them to FuseKernels and get one
// loop: an assign group finishes every statement for element j before it
// touches j+1, with produced values kept in registers; an SpMV group computes
// a block's rows, then its dots over them while they are in L1. Every other
// kernel is opaque: the pass only needs to know which buffers it writes, or
// that it does not know (Barrier).

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
// Run produces the set's memory effects: those of running every vertex of an
// interpreted set, and all of a billed set's, whose vertices are costs only.
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
// indexing the gathered [owned | halo] vector, the three operand slices, and
// the block's rows cut into runs (SpMVKernel fills Runs).
type CSRBlock struct {
	RowPtr, Cols []int32
	Diag, Vals   []float32
	X, H, Y      []float32 // owned source, halo source, destination
	Runs         []RowRun
}

// RowRun is the rows [First, End) of a block. Count is the number of stored
// off-diagonal entries of every row, or MixedRun for rows that take the
// generic row loop.
type RowRun struct{ First, End, Count int32 }

// MixedRun is the Count of a run of rows without a row body of their own.
const MixedRun = -1

// minBodyRun is the shortest run that gets its row body: a single row costs
// more to dispatch than its body saves.
const minBodyRun = 2

// rowBodies lists the off-diagonal counts CSRBlock.rows has a row body for:
// the 2-D five-point and 3-D seven-point stencils, their boundary rows of 5,
// and the 27-point stencil's interior and face rows.
var rowBodies = [...]int32{4, 5, 6, 17, 26}

// RowBodies returns the off-diagonal counts that have a row body.
func RowBodies() []int32 { return slices.Clone(rowBodies[:]) }

// appendRuns cuts rows [0, len(rowPtr)-1) into runs and appends them to
// runs, in row order: each maximal run of at least minBodyRun rows of one
// count with a body, and maximal mixed runs of the rows in between.
func appendRuns(runs []RowRun, rowPtr []int32) []RowRun {
	first := len(runs)
	for i, n := 0, len(rowPtr)-1; i < n; {
		c, end := rowPtr[i+1]-rowPtr[i], i+1
		for end < n && rowPtr[end+1]-rowPtr[end] == c {
			end++
		}
		if !slices.Contains(rowBodies[:], c) || end-i < minBodyRun {
			c = MixedRun
		}
		if last := len(runs) - 1; last >= first && c == MixedRun && runs[last].Count == MixedRun {
			runs[last].End = int32(end)
		} else {
			runs = append(runs, RowRun{First: int32(i), End: int32(end), Count: c})
		}
		i = end
	}
	return runs
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

// SpMVKernel describes y = A·x over the block table and cuts each block's
// rows into its run table, once, when the program is scheduled. Each row sums
// its diagonal product, then its stored entries in storage order, in
// CSRBlock.rows whichever loop runs it, so both backends leave the same bits.
func SpMVKernel(csr []CSRBlock, gather []float32) *NativeKernel {
	var runs []RowRun // the blocks' tables, appended to one slice
	for i := range csr {
		b := &csr[i]
		start := len(runs)
		runs = appendRuns(runs, b.RowPtr[:len(b.Y)+1])
		b.Runs = runs[start:len(runs):len(runs)]
	}
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
// element by element (block by block behind an SpMV), and the signature it
// was looked up under; nil when the statements do not share a block table or
// the table has no loop of that signature.
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

// The three SpMV loops compute every row in CSRBlock.rows: one set of row
// bodies, so the plain loop and the loops with dot riders execute the same
// instructions per row and leave the same bits, NaN signs included (x86 keeps
// the first operand's NaN, so two loops whose adds took their operands in a
// different order could disagree). A rider is then the standalone partial's
// own dot over the block's rows, still in L1.

// rows computes y = A·x for the block from the gathered source xh, run by
// run. A count with a body runs a row loop with the count as a constant: the
// entries unrolled, the vals/cols windows cut to the count, no per-entry exit
// branch. A mixed run takes the generic entry loop. Each row sums its diagonal
// product, then its entries in storage order. It is kept out of line so that
// every loop shares its instructions.
//
//go:noinline
func (b *CSRBlock) rows(xh []float32) {
	for _, r := range b.Runs {
		// Loaded per run: hoisted out of the run loop, they cost a register
		// the row loops need (poisson3d:32 ran 17 % slower).
		k, vals, cols := int(b.RowPtr[r.First]), b.Vals, b.Cols
		y := b.Y[r.First:r.End]
		d, xo := b.Diag[r.First:r.End][:len(y)], xh[r.First:r.End][:len(y)]
		switch r.Count {
		case 4: // 2-D five-point rows
			for i := range y {
				y[i] = add4(d[i]*xo[i], vals[k:k+4:k+4], cols[k:k+4:k+4], xh)
				k += 4
			}
		case 5:
			for i := range y {
				y[i] = add5(d[i]*xo[i], vals[k:k+5:k+5], cols[k:k+5:k+5], xh)
				k += 5
			}
		case 6: // 3-D seven-point rows
			for i := range y {
				y[i] = add6(d[i]*xo[i], vals[k:k+6:k+6], cols[k:k+6:k+6], xh)
				k += 6
			}
		case 17:
			for i := range y {
				v, c := vals[k:k+17:k+17], cols[k:k+17:k+17]
				s := add6(d[i]*xo[i], v[:6], c[:6], xh)
				s = add6(s, v[6:12], c[6:12], xh)
				y[i] = add5(s, v[12:], c[12:], xh)
				k += 17
			}
		case 26: // 3-D 27-point rows
			for i := range y {
				v, c := vals[k:k+26:k+26], cols[k:k+26:k+26]
				s := add6(d[i]*xo[i], v[:6], c[:6], xh)
				s = add6(s, v[6:12], c[6:12], xh)
				s = add6(s, v[12:18], c[12:18], xh)
				s = add4(s, v[18:22], c[18:22], xh)
				y[i] = add4(s, v[22:], c[22:], xh)
				k += 26
			}
		default:
			ends, cols := b.RowPtr[r.First+1 : r.End+1][:len(y)], cols[:len(vals)]
			for i := range y {
				s := d[i] * xo[i]
				for end := int(ends[i]); k < end; k++ {
					s += vals[k] * xh[cols[k]]
				}
				y[i] = s
			}
		}
	}
}

// add4, add5 and add6 add a row's next 4, 5 or 6 entries to s, in order.
func add4(s float32, v []float32, c []int32, xh []float32) float32 {
	v, c = v[:4:4], c[:4:4]
	s += v[0] * xh[c[0]]
	s += v[1] * xh[c[1]]
	s += v[2] * xh[c[2]]
	return s + v[3]*xh[c[3]]
}

func add5(s float32, v []float32, c []int32, xh []float32) float32 {
	return add4(s, v[:4], c[:4], xh) + v[4]*xh[c[4]]
}

func add6(s float32, v []float32, c []int32, xh []float32) float32 {
	v, c = v[:6:6], c[:6:6]
	s += v[0] * xh[c[0]]
	s += v[1] * xh[c[1]]
	s += v[2] * xh[c[2]]
	s += v[3] * xh[c[3]]
	s += v[4] * xh[c[4]]
	return s + v[5]*xh[c[5]]
}

func spmvLoop(st *NativeKernel) func() {
	blocks, scratch := st.CSR, st.Gather
	return func() {
		for bi := range blocks {
			b := &blocks[bi]
			b.rows(b.gather(scratch))
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
			b.rows(b.gather(scratch))
			d.Sink.put(d.Tiles[bi], dot(d.A[bi], b.Y))
		}
	}
}

// spmvTwoDotLoop is y = A·x with y·o and y·y riding along (PBiCGStab's t·s
// and t·t), both in one pass over y.
func spmvTwoDotLoop(s []*NativeKernel) func() {
	blocks, scratch, d0, d1 := s[0].CSR, s[0].Gather, s[1], s[2]
	return func() {
		for bi := range blocks {
			b := &blocks[bi]
			b.rows(b.gather(scratch))
			yo, yy := dot2(b.Y, d0.B[bi])
			if yo != yo || yy != yy {
				// Which NaN an add of two NaNs keeps follows the operand
				// order the compiler chose: take dot's, the standalone
				// partials' loop.
				yo, yy = dot(b.Y, d0.B[bi]), dot(b.Y, b.Y)
			}
			d0.Sink.put(d0.Tiles[bi], yo)
			d1.Sink.put(d1.Tiles[bi], yy)
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
				sum = dot(x, k.B[bi])
			}
			k.Sink.put(k.Tiles[bi], sum)
		}
	}
}

// dot is one block's float32 Σ a∘b, each product rounded before the add, in
// index order: the loop of every standalone dot partial and of every SpMV
// rider, kept out of line like CSRBlock.rows so that they leave the same bits.
//
//go:noinline
func dot(a, b []float32) float32 {
	b = b[:len(a)]
	var sum float32
	for j := range a {
		sum += float32(a[j] * b[j])
	}
	return sum
}

// dot2 is dot(a, b) and dot(a, a) in one pass: two independent accumulators,
// each with dot's products, operand order and element order, so each leaves
// dot's bits on data without NaN (spmvTwoDotLoop takes dot's for a NaN sum).
func dot2(a, b []float32) (ab, aa float32) {
	b = b[:len(a)]
	for j, v := range a {
		ab += float32(v * b[j])
		aa += float32(v * v)
	}
	return ab, aa
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
