// Package solver implements the framework's suite of distributed linear
// solvers and preconditioners on the simulated IPU (paper §V):
//
//   - the Preconditioned BiCGStab Krylov solver (Fig. 4 of the paper),
//   - Gauss-Seidel (level-set scheduled across the six worker threads),
//   - ILU(0) and DILU preconditioners (level-set scheduled factorization and
//     substitution, tile-local blocks),
//   - Jacobi and Richardson building blocks,
//   - Mixed-Precision Iterative Refinement (MPIR) with double-word or
//     soft-double extended precision (paper §V-B),
//
// and the distributed System substrate they all share: the reordered matrix
// localized per tile (package halo), device-resident in the modified CRS
// format, with blockwise halo-exchange steps and SpMV compute sets scheduled
// through TensorDSL sessions. The modular design allows any solver to act as
// the preconditioner of another (nested configurations via package config).
package solver

import (
	"fmt"

	"ipusparse/internal/graph"
	"ipusparse/internal/halo"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
	"ipusparse/internal/twofloat"
)

// workerStart is the fixed worker-thread launch cost, matching the DSLs.
const workerStart = 20

// levelSyncCycles is the IPUTHREADING-style worker sync cost per level of a
// level-set schedule (run/runall startup plus the sync instruction barrier).
const levelSyncCycles = 32

// sweepRowCost is the issue-bundle cost of one row of a triangular or
// Gauss-Seidel sweep with n off-diagonal terms: per term one FMA pairs with
// ~4 aux instructions (value, index, address, gather), and the row itself
// needs level-list indirection, the rhs load and the result store.
func sweepRowCost(n uint64) uint64 {
	const issue = 6
	fp := n + 1
	aux := 4*n + 4
	if fp > aux {
		return fp * issue
	}
	return aux * issue
}

// Extended-precision per-nonzero op costs for the residual SpMV: a float32
// matrix coefficient times an extended x value, accumulated in extended
// precision. The DW mixed product (Joldes DWTimesFP) is cheaper than a full
// DW*DW multiply.
const (
	dwMulFPCycles  = 60
	f64MulFPCycles = 1260
)

// System is a sparse linear system distributed across the machine's tiles:
// the halo-reordered matrix in tile-local modified CRS plus the exchange
// program and scratch halo buffers.
type System struct {
	Sess   *tensordsl.Session
	Layout *halo.Layout
	Locals []*halo.LocalMatrix

	n     int
	sizes []int // owned cells per tile = distributed tensor mapping

	// Device-resident matrix blocks (float32 values, separate dense diag).
	diag [][]float32
	vals [][]float32

	// Scratch halo buffers per tile, one set per scalar type in use.
	haloF32 []*graph.Buffer
	haloDW  []*graph.Buffer
	haloF64 []*graph.Buffer

	// blocks is the table of populated tiles every native kernel of the
	// system sweeps (see tileBlock); gather32/gather64 are the kernels'
	// [owned | halo] gather scratch (see gatherScratch), maxTotal the local
	// vector length of the largest block.
	blocks   []tileBlock
	maxTotal int
	gather32 []float32
	gather64 []float64

	// permScratch carries the reordered view of one host vector between the
	// permutation and the device write, reused across solves.
	permScratch []float64

	// refreshHooks re-derive value snapshots taken at schedule time (diagonal
	// tensors, the coarse operator) after a values-only matrix refresh. Every
	// schedule-time consumer of sys.diag/sys.vals that copies rather than
	// aliases registers one via OnRefresh.
	refreshHooks []func() error

	// abft, when non-nil, arms checksum-carrying SpMV (see abft.go).
	abft *abftState
}

// NewSystem reorders matrix m under the partition, localizes it per tile,
// and uploads it to the simulated device (accounting SRAM for values,
// indices and halo buffers).
func NewSystem(sess *tensordsl.Session, m *sparse.Matrix, p *partition.Partition) (*System, error) {
	if p.NumParts != sess.M.NumTiles() {
		return nil, fmt.Errorf("solver: partition has %d parts for %d tiles", p.NumParts, sess.M.NumTiles())
	}
	l, err := halo.Build(m, p)
	if err != nil {
		return nil, err
	}
	locals, err := halo.Localize(m, l)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Sess:   sess,
		Layout: l,
		Locals: locals,
		n:      m.N,
		sizes:  make([]int, len(locals)),
		diag:   make([][]float32, len(locals)),
		vals:   make([][]float32, len(locals)),
	}
	mach := sess.M
	for t, lm := range locals {
		sys.sizes[t] = lm.NumOwned
		// SRAM accounting: diag + vals + cols + rowptr.
		bytes := 4 * (len(lm.Diag) + 2*len(lm.Vals) + len(lm.RowPtr))
		if err := mach.Alloc(t, bytes); err != nil {
			return nil, fmt.Errorf("solver: matrix block on tile %d: %w", t, err)
		}
		sys.diag[t] = make([]float32, len(lm.Diag))
		for i, v := range lm.Diag {
			sys.diag[t][i] = float32(v)
		}
		sys.vals[t] = make([]float32, len(lm.Vals))
		for i, v := range lm.Vals {
			sys.vals[t][i] = float32(v)
		}
		if lm.NumOwned > 0 {
			sys.blocks = append(sys.blocks, tileBlock{
				tile: t, owned: lm.NumOwned, total: lm.Total(),
				rowPtr: lm.RowPtr, cols: lm.Cols, diag: sys.diag[t], vals: sys.vals[t],
			})
			if lm.Total() > sys.maxTotal {
				sys.maxTotal = lm.Total()
			}
		}
	}
	return sys, nil
}

// tileBlock is one populated tile of the table the system's native kernels
// share: the index and value arrays the tile's codelets read — same slices,
// no copy. Call sites keep only their operand slices.
type tileBlock struct {
	tile         int
	owned, total int
	rowPtr, cols []int32
	diag, vals   []float32
}

// gatherScratch allocates, on first use at schedule time, the scratch the
// matrix kernels gather a tile's [owned | halo] vector into, so that their
// inner loop reads x[cols[k]] with no owned/halo branch. A kernel fills it
// from its operand's tensor and halo buffers at the top of its sweep of each
// tile — inside the kernel, so after the injector's consultation point: a
// fault campaign corrupts the registered tensor and halo buffers, never this
// scratch. Kernels run one at a time and tile after tile, so one scratch
// sized for the largest tile serves every call site. gather32 holds two
// vectors: float32 kernels use the first, double-word kernels both (hi | lo,
// structure of arrays like graph.Buffer); gather64 is the soft-double one.
func (sys *System) gatherScratch(dt ipu.Scalar) {
	switch {
	case dt == ipu.F64 && sys.gather64 == nil:
		sys.gather64 = make([]float64, sys.maxTotal)
	case dt != ipu.F64 && sys.gather32 == nil:
		sys.gather32 = make([]float32, 2*sys.maxTotal)
	}
}

// N returns the global number of rows.
func (sys *System) N() int { return sys.n }

// Vector creates a distributed float32 vector matching the system layout.
func (sys *System) Vector(name string) *tensordsl.Tensor {
	return sys.Sess.MustTensor(name, ipu.F32, sys.sizes)
}

// VectorTyped creates a distributed vector of an explicit scalar type.
func (sys *System) VectorTyped(name string, dt ipu.Scalar) *tensordsl.Tensor {
	return sys.Sess.MustTensor(name, dt, sys.sizes)
}

// SetGlobal writes a host vector (in original, pre-reordering row numbering)
// into a distributed tensor.
func (sys *System) SetGlobal(t *tensordsl.Tensor, x []float64) error {
	if len(x) != sys.n {
		return fmt.Errorf("solver: SetGlobal: %d values for %d rows", len(x), sys.n)
	}
	local := sys.scratch()
	off := 0
	for tile := range sys.Locals {
		for li, g := range sys.Layout.Tiles[tile].Owned {
			local[off+li] = x[g]
		}
		off += sys.sizes[tile]
	}
	return t.SetHost(local)
}

// GetGlobal reads a distributed tensor back into original row numbering.
func (sys *System) GetGlobal(t *tensordsl.Tensor) []float64 {
	out := make([]float64, sys.n)
	if err := sys.GetGlobalInto(out, t); err != nil {
		panic(err) // length is correct by construction
	}
	return out
}

// GetGlobalInto reads a distributed tensor back into original row numbering
// without allocating: out must have exactly N() elements.
func (sys *System) GetGlobalInto(out []float64, t *tensordsl.Tensor) error {
	if len(out) != sys.n {
		return fmt.Errorf("solver: GetGlobalInto: %d slots for %d rows", len(out), sys.n)
	}
	local := sys.scratch()
	if err := t.HostInto(local); err != nil {
		return err
	}
	off := 0
	for tile := range sys.Locals {
		for li, g := range sys.Layout.Tiles[tile].Owned {
			out[g] = local[off+li]
		}
		off += sys.sizes[tile]
	}
	return nil
}

func (sys *System) scratch() []float64 {
	if sys.permScratch == nil {
		sys.permScratch = make([]float64, sys.n)
	}
	return sys.permScratch
}

// haloBuffers returns (allocating on first use) the scratch halo buffer set
// for the scalar type. An SRAM overflow is a data-dependent condition, so it
// is reported as an error rather than a panic; the buffers are registered with
// the session's fault-memory registry like any other device-resident data.
func (sys *System) haloBuffers(dt ipu.Scalar) ([]*graph.Buffer, error) {
	var set *[]*graph.Buffer
	switch dt {
	case ipu.F32:
		set = &sys.haloF32
	case ipu.DW:
		set = &sys.haloDW
	case ipu.F64:
		set = &sys.haloF64
	default:
		panic(fmt.Sprintf("solver: no halo buffers for %v", dt))
	}
	if *set == nil {
		bufs := make([]*graph.Buffer, len(sys.Locals))
		for t, lm := range sys.Locals {
			if err := sys.Sess.M.Alloc(t, lm.NumHalo*dt.Size()); err != nil {
				return nil, fmt.Errorf("solver: halo buffers on tile %d: %w", t, err)
			}
			bufs[t] = graph.NewBuffer(dt, lm.NumHalo)
			if sys.Sess.Registry != nil {
				sys.Sess.Registry.RegisterBuffer(t, fmt.Sprintf("halo[%v]", dt), bufs[t])
			}
		}
		*set = bufs
	}
	return *set, nil
}

// ExchangeStep schedules the blockwise halo exchange of vector v into the
// system's scratch halo buffers for v's scalar type: each separator region of
// v's owned data is broadcast to the mirroring halo regions (paper §IV).
// Each move carries the destination ranges it writes as fault targets, so the
// exchange fault model can corrupt exactly the delivered words.
func (sys *System) ExchangeStep(v *tensordsl.Tensor) {
	dt := v.Type()
	halos, err := sys.haloBuffers(dt)
	if err != nil {
		// Surface the allocation failure when the program runs, with step
		// context, instead of killing the process at schedule time.
		sys.Sess.Append(graph.HostCall{Name: "halo:" + v.Name + ":alloc", Fn: func() error { return err }})
		return
	}
	moves := make([]graph.Move, 0, len(sys.Layout.Program))
	for _, tr := range sys.Layout.Program {
		dsts := make([]int, len(tr.Dst))
		targets := make([]graph.MoveTarget, len(tr.Dst))
		src, so, n := v.Buf(tr.SrcTile), tr.SrcOff, tr.Len
		for i, d := range tr.Dst {
			dsts[i] = d.Tile
			targets[i] = graph.MoveTarget{
				Tile: d.Tile,
				Buf:  halos[d.Tile],
				Off:  d.Off - sys.Locals[d.Tile].NumOwned,
				Len:  n,
			}
			// The ranges are checked here, once; Do below only copies.
			if do := targets[i].Off; n < 0 || so < 0 || do < 0 || so+n > src.Len() || do+n > halos[d.Tile].Len() {
				err := fmt.Errorf("solver: halo move of %q, tile %d [%d:+%d] to tile %d [%d:+%d], leaves its buffers",
					v.Name, tr.SrcTile, so, n, d.Tile, do, n)
				sys.Sess.Append(graph.HostCall{Name: "halo:" + v.Name + ":layout", Fn: func() error { return err }})
				return
			}
		}
		// The data movement is resolved per scalar type when the step is
		// built: typed source slices (tensor buffers never reallocate) copied
		// to the destination ranges the fault targets already name.
		var do func() error
		switch dt {
		case ipu.F32:
			s32 := src.F32[so : so+n]
			do = func() error {
				for i := range targets {
					t := &targets[i]
					copy(t.Buf.F32[t.Off:], s32)
				}
				return nil
			}
		case ipu.DW:
			hi, lo := src.Hi[so:so+n], src.Lo[so:so+n]
			do = func() error {
				for i := range targets {
					t := &targets[i]
					copy(t.Buf.Hi[t.Off:], hi)
					copy(t.Buf.Lo[t.Off:], lo)
				}
				return nil
			}
		case ipu.F64:
			s64 := src.F64[so : so+n]
			do = func() error {
				for i := range targets {
					t := &targets[i]
					copy(t.Buf.F64[t.Off:], s64)
				}
				return nil
			}
		}
		moves = append(moves, graph.Move{
			SrcTile:  tr.SrcTile,
			DstTiles: dsts,
			Bytes:    n * dt.Size(),
			Targets:  targets,
			Do:       do,
		})
	}
	sys.Sess.Append(graph.Exchange{Name: "halo:" + v.Name, Label: "Exchange", Moves: moves})
}

// spmvCost models one worker's SpMV chunk. A worker owns one issue slot of
// the six-slot round robin (one instruction bundle every six cycles); a
// bundle dual-issues at most one FP and one load/store/integer instruction.
// Per stored entry the FP pipeline executes one FMA while the aux pipeline
// needs about four instructions (value load, column-index load, address
// computation, gather of x[j]), so the sparse gather — not the FMA — bounds
// the issue count, exactly the effect that keeps real SpMVs below peak.
func spmvCost(nnz, rows int, dt ipu.Scalar) uint64 {
	const issue = 6 // cycles between a worker's issue slots
	fpInstr := uint64(nnz + rows)
	auxInstr := uint64(nnz)*4 + uint64(rows)*2
	bundles := fpInstr
	if auxInstr > bundles {
		bundles = auxInstr
	}
	switch dt {
	case ipu.F32:
		return bundles * issue
	case ipu.DW:
		// Extended arithmetic replaces the single FMA with a multi-op
		// sequence whose cycle count already reflects issue slots.
		fp := uint64(nnz+rows) * (dwMulFPCycles + ipu.Cost(ipu.OpAdd, ipu.DW))
		if a := auxInstr * issue; a > fp {
			return a
		}
		return fp
	default:
		fp := uint64(nnz+rows) * (f64MulFPCycles + ipu.Cost(ipu.OpAdd, ipu.F64))
		if a := auxInstr * issue; a > fp {
			return a
		}
		return fp
	}
}

// SpMV schedules dst = A*src in working precision (float32): a halo exchange
// of src followed by one compute set whose per-tile vertex is split across
// the six worker threads.
func (sys *System) SpMV(dst, src *tensordsl.Tensor) {
	sys.ExchangeStep(src)
	halos := sys.haloF32
	if halos == nil {
		return // halo allocation failed; ExchangeStep scheduled the error
	}
	cs := graph.NewComputeSet("spmv", "SpMV")
	workers := sys.Sess.M.Config().WorkersPerTile
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}

		sb, db, hb := src.Buf(t), dst.Buf(t), halos[t]
		diag, vals := sys.diag[t], sys.vals[t]
		for w := 0; w < workers; w++ {
			lo := lm.NumOwned * w / workers
			hi := lm.NumOwned * (w + 1) / workers
			if lo == hi {
				continue
			}

			nnz := int(lm.RowPtr[hi] - lm.RowPtr[lo])
			cost := spmvCost(nnz, hi-lo, ipu.F32) + workerStart
			cs.Add(t, graph.CodeletFunc(func() uint64 {
				x, y, h := sb.F32, db.F32, hb.F32
				for i := lo; i < hi; i++ {
					s := diag[i] * x[i]
					for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
						j := int(lm.Cols[k])
						var xj float32
						if j < lm.NumOwned {
							xj = x[j]
						} else {
							xj = h[j-lm.NumOwned]
						}
						s += vals[k] * xj
					}
					y[i] = s
				}
				return cost
			}))
		}
	}
	cs.NativeKernel = sys.nativeSpMV(dst, src, halos)
	sys.Sess.Append(graph.Compute{Set: cs})
	if sys.abft != nil {
		sys.scheduleABFTCheck(dst, src)
	}
}

// nativeSpMV describes the flat host-speed SpMV the native backend executes:
// one CSR sweep per tile block over the gathered [owned | halo] vector (see
// gatherScratch), alone or with the dots of its result riding along.
func (sys *System) nativeSpMV(dst, src *tensordsl.Tensor, halos []*graph.Buffer) *graph.NativeKernel {
	sys.gatherScratch(ipu.F32)
	csr := make([]graph.CSRBlock, len(sys.blocks))
	for i, b := range sys.blocks {
		csr[i] = graph.CSRBlock{
			RowPtr: b.rowPtr, Cols: b.cols, Diag: b.diag, Vals: b.vals,
			X: src.Buf(b.tile).F32, H: halos[b.tile].F32, Y: dst.Buf(b.tile).F32,
		}
	}
	k := graph.SpMVKernel(csr, sys.gather32)
	k.Reads, k.Writes = sys.blockBufs(halos, src), sys.blockBufs(nil, dst)
	return k
}

// blockBufs lists, for the read/write set of a native kernel, the buffers of
// the tensors (and of the halo set, when given) on the populated tiles.
func (sys *System) blockBufs(halos []*graph.Buffer, ts ...*tensordsl.Tensor) []*graph.Buffer {
	var out []*graph.Buffer
	for _, b := range sys.blocks {
		for _, t := range ts {
			out = append(out, t.Buf(b.tile))
		}
		if halos != nil {
			out = append(out, halos[b.tile])
		}
	}
	return out
}

// ResidualExt schedules r = b - A*x computed entirely in extended precision
// (x, b, r share an extended scalar type: DW or F64). This is step 1 of the
// MPIR method: float32 matrix coefficients multiply extended x values and
// accumulate in extended precision, so the residual retains ~2x the working
// precision. The halo exchange moves extended (8-byte) values.
func (sys *System) ResidualExt(r, b, x *tensordsl.Tensor) {
	dt := x.Type()
	if dt != ipu.DW && dt != ipu.F64 {
		panic("solver: ResidualExt requires an extended-precision x")
	}
	sys.ExchangeStep(x)
	halos, err := sys.haloBuffers(dt)
	if err != nil {
		return // halo allocation failed; ExchangeStep scheduled the error
	}
	cs := graph.NewComputeSet("residual-ext", "Extended-Precision Ops")
	workers := sys.Sess.M.Config().WorkersPerTile
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}

		xb, bb, rb, hb := x.Buf(t), b.Buf(t), r.Buf(t), halos[t]
		diag, vals := sys.diag[t], sys.vals[t]
		for w := 0; w < workers; w++ {
			lo := lm.NumOwned * w / workers
			hi := lm.NumOwned * (w + 1) / workers
			if lo == hi {
				continue
			}

			nnz := int(lm.RowPtr[hi] - lm.RowPtr[lo])
			cost := spmvCost(nnz, hi-lo, dt) + workerStart
			if dt == ipu.DW {
				cs.Add(t, graph.CodeletFunc(func() uint64 {
					for i := lo; i < hi; i++ {
						acc := twofloat.MulFloat(xb.GetDW(i), diag[i])
						for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
							j := int(lm.Cols[k])
							var xj twofloat.DW
							if j < lm.NumOwned {
								xj = xb.GetDW(j)
							} else {
								xj = hb.GetDW(j - lm.NumOwned)
							}
							acc = twofloat.Add(acc, twofloat.MulFloat(xj, vals[k]))
						}
						rb.SetDW(i, twofloat.Sub(bb.GetDW(i), acc))
					}
					return cost
				}))
			} else {
				cs.Add(t, graph.CodeletFunc(func() uint64 {
					for i := lo; i < hi; i++ {
						acc := float64(diag[i]) * xb.F64[i]
						for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
							j := int(lm.Cols[k])
							var xj float64
							if j < lm.NumOwned {
								xj = xb.F64[j]
							} else {
								xj = hb.F64[j-lm.NumOwned]
							}
							acc += float64(vals[k]) * xj
						}
						rb.F64[i] = bb.F64[i] - acc
					}
					return cost
				}))
			}
		}
	}
	cs.NativeKernel = graph.OpaqueKernel(sys.nativeResidualExt(r, b, x, halos, dt),
		sys.blockBufs(halos, x, b), sys.blockBufs(nil, r))
	sys.Sess.Append(graph.Compute{Set: cs})
}

// nativeResidualExt is the flat extended-precision residual kernel: the same
// row arithmetic as the worker codelets, in the same order (bit-identical),
// in one sweep per tile block over the gathered [owned | halo] vector.
func (sys *System) nativeResidualExt(r, b, x *tensordsl.Tensor, halos []*graph.Buffer, dt ipu.Scalar) func() {
	sys.gatherScratch(dt)
	blocks := sys.blocks
	type operands struct{ x, b, r, h *graph.Buffer }
	ops := make([]operands, len(blocks))
	for i, bl := range blocks {
		ops[i] = operands{x: x.Buf(bl.tile), b: b.Buf(bl.tile), r: r.Buf(bl.tile), h: halos[bl.tile]}
	}
	if dt == ipu.DW {
		return func() {
			for bi := range blocks {
				bl, o := &blocks[bi], &ops[bi]
				hi, lo := sys.gather32[:bl.total], sys.gather32[sys.maxTotal:][:bl.total]
				copy(hi, o.x.Hi)
				copy(lo, o.x.Lo)
				copy(hi[bl.owned:], o.h.Hi)
				copy(lo[bl.owned:], o.h.Lo)
				rowPtr, cols, vals, diag := bl.rowPtr, bl.cols, bl.vals, bl.diag
				bHi, bLo, rHi, rLo := o.b.Hi, o.b.Lo, o.r.Hi, o.r.Lo
				k := rowPtr[0]
				for i := range rHi {
					acc := twofloat.MulFloat(twofloat.DW{Hi: hi[i], Lo: lo[i]}, diag[i])
					for end := rowPtr[i+1]; k < end; k++ {
						c := cols[k]
						acc = twofloat.Add(acc, twofloat.MulFloat(twofloat.DW{Hi: hi[c], Lo: lo[c]}, vals[k]))
					}
					d := twofloat.Sub(twofloat.DW{Hi: bHi[i], Lo: bLo[i]}, acc)
					rHi[i], rLo[i] = d.Hi, d.Lo
				}
			}
		}
	}
	return func() {
		for bi := range blocks {
			bl, o := &blocks[bi], &ops[bi]
			xh := sys.gather64[:bl.total]
			copy(xh, o.x.F64)
			copy(xh[bl.owned:], o.h.F64)
			rowPtr, cols, vals, diag := bl.rowPtr, bl.cols, bl.vals, bl.diag
			bf, rf := o.b.F64, o.r.F64
			k := rowPtr[0]
			for i := range rf {
				acc := float64(diag[i]) * xh[i]
				for end := rowPtr[i+1]; k < end; k++ {
					acc += float64(vals[k]) * xh[cols[k]]
				}
				rf[i] = bf[i] - acc
			}
		}
	}
}

// DiagTensor returns a distributed tensor holding the matrix diagonal
// (used by the Jacobi preconditioner). The tensor is a value snapshot, so a
// refresh hook re-uploads it when the matrix values change.
func (sys *System) DiagTensor(name string) *tensordsl.Tensor {
	t := sys.Vector(name)
	fill := func() error {
		vals := sys.scratch()
		off := 0
		for tile := range sys.Locals {
			for _, d := range sys.diag[tile] {
				vals[off] = float64(d)
				off++
			}
		}
		return t.SetHost(vals[:off])
	}
	if err := fill(); err != nil {
		panic(err)
	}
	sys.OnRefresh(fill)
	return t
}

// OnRefresh registers a hook RefreshValues runs after the tile-local value
// arrays have been overwritten. Schedule-time consumers that snapshot matrix
// values (rather than holding slice references into sys.diag/sys.vals, which
// refresh for free) register one to re-derive their copy.
func (sys *System) OnRefresh(hook func() error) {
	sys.refreshHooks = append(sys.refreshHooks, hook)
}

// RefreshValues adopts the numeric payload of m — same sparsity pattern, new
// values — into the already-built system without touching partition, halo
// schedule or any scheduled program. The float64 local blocks and the float32
// device arrays are overwritten in place, so every codelet and native kernel
// holding slice references sees the new values on its next run; factorizing
// preconditioners (ILU(0), DILU, MPIR setup) re-factor from these arrays at
// run time and need no further work. Snapshot consumers re-derive through
// their registered refresh hooks, and armed ABFT recomputes its column
// checksums. The caller is responsible for verifying the pattern fingerprint
// beforehand; structural mismatches that slip through fail on the per-row
// entry-count check.
func (sys *System) RefreshValues(m *sparse.Matrix) error {
	if err := halo.RefreshValues(m, sys.Layout, sys.Locals); err != nil {
		return err
	}
	for t, lm := range sys.Locals {
		d := sys.diag[t]
		for i, v := range lm.Diag {
			d[i] = float32(v)
		}
		vs := sys.vals[t]
		for i, v := range lm.Vals {
			vs[i] = float32(v)
		}
	}
	for _, hook := range sys.refreshHooks {
		if err := hook(); err != nil {
			return fmt.Errorf("solver: refresh hook: %w", err)
		}
	}
	sys.abftRefresh()
	return nil
}
