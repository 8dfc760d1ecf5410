package solver

import (
	"fmt"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/levelset"
	"ipusparse/internal/tensordsl"
)

// Identity is the no-op preconditioner (turns PBiCGStab into plain BiCGStab).
type Identity struct{ Sys *System }

// Name implements Preconditioner.
func (Identity) Name() string { return "none" }

// SetupStep implements Preconditioner.
func (Identity) SetupStep() {}

// ApplyStep implements Preconditioner: z = r.
func (p Identity) ApplyStep(z, r Tensor) { z.Assign(tensordsl.E(r)) }

// Jacobi is diagonal scaling: z = D⁻¹ r. The reciprocal diagonal is computed
// once at setup (the modified CRS format's dense diagonal array makes this a
// single elementwise codelet).
type Jacobi struct {
	Sys  *System
	invd Tensor
}

// Name implements Preconditioner.
func (*Jacobi) Name() string { return "jacobi" }

// SetupStep implements Preconditioner.
func (p *Jacobi) SetupStep() {
	d := p.Sys.DiagTensor("jacobi:diag")
	p.invd = p.Sys.Vector("jacobi:invd")
	p.invd.Assign(tensordsl.Div(1.0, d))
}

// ApplyStep implements Preconditioner.
func (p *Jacobi) ApplyStep(z, r Tensor) {
	z.Assign(tensordsl.Mul(p.invd, r))
}

// triSchedule holds what the triangular substitution sweeps of ILU and DILU
// need: per tile, the static level-set parallel costs the simulator bills;
// per block of the system's table, the packed sweeps the native kernels run.
// The level schedules themselves are setup-time values; nothing keeps them
// alive.
type triSchedule struct {
	fwdCost []uint64 // per tile, level-set parallel cost of the lower sweep
	bwdCost []uint64
	fwd     []sweepPack // per block
	bwd     []sweepPack
}

// sweepPack is one block's substitution sweep in one direction, packed in the
// order it runs. Step s visits row[s] and owns the entries up to end[s]: for
// the lower sweep the stored entries with Cols[k] < i, for the upper sweep
// those with i < Cols[k] < owned — what the codelet's column test keeps, in
// storage order. The rows follow the sweep's level sets (levels concatenated,
// rows ascending inside a level), so consecutive steps rarely depend on each
// other and the core overlaps them. Every row still subtracts the same
// products in the same order from the same operands, whatever topological
// order the rows come in, so the sweep leaves exactly the codelet's bits.
//
// col and src are pattern data; val and diag are gathered from the factor
// arrays by the factor kernel (gather), so a values refresh needs nothing
// beyond the re-factorization every solve runs anyway.
type sweepPack struct {
	row  []int32   // row visited at step s
	end  []int32   // one past step s's last entry
	col  []int32   // per entry, its tile-local column
	src  []int32   // per entry, its position in the tile's Cols/Vals/factor values
	val  []float32 // per entry, the packed factor value
	diag []float32 // per step, the packed diagonal; nil for a unit diagonal
}

// packSweep lays out one direction of block b's sweep over the rows in the
// given order, which must be a topological order of the sweep's DAG. Values
// are left for gather.
func packSweep(b *tileBlock, order []int, lower, div bool) sweepPack {
	keep := func(i int, c int32) bool {
		if lower {
			return int(c) < i
		}
		return int(c) > i && int(c) < b.owned
	}
	entries := 0
	for i := 0; i < b.owned; i++ {
		for _, c := range b.cols[b.rowPtr[i]:b.rowPtr[i+1]] {
			if keep(i, c) {
				entries++
			}
		}
	}
	sp := sweepPack{
		row: make([]int32, len(order)), end: make([]int32, len(order)),
		col: make([]int32, entries), src: make([]int32, entries), val: make([]float32, entries),
	}
	if div {
		sp.diag = make([]float32, len(order))
	}
	q := int32(0)
	for s, i := range order {
		for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
			if keep(i, b.cols[k]) {
				sp.col[q], sp.src[q] = b.cols[k], k
				q++
			}
		}
		sp.row[s], sp.end[s] = int32(i), q
	}
	return sp
}

// rowEntries returns, indexed by row, the number of entries the sweep keeps:
// what the cost model bills a row for. A setup-time value, not retained.
func (sp *sweepPack) rowEntries() []int32 {
	count := make([]int32, len(sp.row))
	q := int32(0)
	for s, i := range sp.row {
		count[i] = sp.end[s] - q
		q = sp.end[s]
	}
	return count
}

// gather packs the sweep's values from the tile's value array (factored or
// original, in storage order) and its diagonal.
func (sp *sweepPack) gather(vals, diag []float32) {
	for q, k := range sp.src {
		sp.val[q] = vals[k]
	}
	for s, i := range sp.row[:len(sp.diag)] {
		sp.diag[s] = diag[i]
	}
}

// The three loops below are the hot path of the default hierarchy. Cutting
// the step-indexed arrays to len(row), val to len(col) and r to len(z) up
// front leaves the entry loop with the two checks it needs (q and the column)
// and few enough live slice headers that q and acc stay in registers.

// solveUnit is the native substitution with a unit diagonal (ILU's L):
// z_i = r_i - Σ val·z[col] over the packed sweep.
func (sp *sweepPack) solveUnit(z, r []float32) {
	row, col := sp.row, sp.col
	end, val := sp.end[:len(row)], sp.val[:len(col)]
	r = r[:len(z)]
	q := 0
	for s, i := range row {
		acc := r[i]
		for e := int(end[s]); q < e; q++ {
			acc -= val[q] * z[col[q]]
		}
		z[i] = acc
	}
}

// solve is the native substitution that divides: z_i = (r_i - Σ val·z[col]) /
// diag_i. r may alias z (ILU's backward sweep): a row's right-hand side is
// read before the row is written and never after.
func (sp *sweepPack) solve(z, r []float32) {
	row, col := sp.row, sp.col
	end, diag, val := sp.end[:len(row)], sp.diag[:len(row)], sp.val[:len(col)]
	r = r[:len(z)]
	q := 0
	for s, i := range row {
		acc := r[i]
		for e := int(end[s]); q < e; q++ {
			acc -= val[q] * z[col[q]]
		}
		z[i] = acc / diag[s]
	}
}

// correct is DILU's backward recurrence z_i -= (Σ val·z[col]) / diag_i over
// the packed sweep.
func (sp *sweepPack) correct(z []float32) {
	row, col := sp.row, sp.col
	end, diag, val := sp.end[:len(row)], sp.diag[:len(row)], sp.val[:len(col)]
	q := 0
	for s, i := range row {
		acc := float32(0)
		for e := int(end[s]); q < e; q++ {
			acc += val[q] * z[col[q]]
		}
		z[i] -= acc / diag[s]
	}
}

// buildTriSchedule computes level-set schedules of the local lower/upper
// triangular patterns (halo columns excluded — they carry lagged values and
// create no dependencies), their six-worker parallel costs and the sweeps
// packed in level order; fwdDiv says whether the forward sweep divides by a
// diagonal (DILU) or L has a unit one (ILU). It also returns the per-tile
// lower schedules for callers that bill a factorization over the same DAG at
// setup time.
func buildTriSchedule(sys *System, fwdDiv bool) (*triSchedule, []*levelset.Schedule) {
	ts := &triSchedule{
		fwdCost: make([]uint64, len(sys.Locals)),
		bwdCost: make([]uint64, len(sys.Locals)),
		fwd:     make([]sweepPack, len(sys.blocks)),
		bwd:     make([]sweepPack, len(sys.blocks)),
	}
	lowers := make([]*levelset.Schedule, len(sys.Locals))
	workers := sys.Sess.M.Config().WorkersPerTile
	for bi := range sys.blocks {
		b := &sys.blocks[bi]
		lower := levelset.Lower(b.owned, b.rowPtr, b.cols)
		upper := levelset.Upper(b.owned, b.rowPtr, b.cols)
		lowers[b.tile] = lower
		ts.fwd[bi] = packSweep(b, lower.Order(), true, fwdDiv)
		ts.bwd[bi] = packSweep(b, upper.Order(), false, true)
		lcount, ucount := ts.fwd[bi].rowEntries(), ts.bwd[bi].rowEntries()
		// Per-row sweep cost under the issue-bundle model (see spmvCost):
		// the gather-heavy aux side (value load, index load, address, load
		// z[j], plus level-list indirection per row) bounds the bundle
		// count, each bundle taking one six-cycle issue slot per worker.
		rowCostL := func(i int) uint64 { return sweepRowCost(uint64(lcount[i])) }
		rowCostU := func(i int) uint64 {
			return sweepRowCost(uint64(ucount[i])) + ipu.Cost(ipu.OpDiv, ipu.F32)
		}
		ts.fwdCost[b.tile] = lower.Assign(workers, nil).CriticalCost(rowCostL, levelSyncCycles) + workerStart
		ts.bwdCost[b.tile] = upper.Assign(workers, nil).CriticalCost(rowCostU, levelSyncCycles) + workerStart
	}
	return ts, lowers
}

// NaturalOrderSweeps re-packs the native sweeps of an ILU or DILU whose
// SetupStep has run in natural row order (ascending forward, descending
// backward) — the order the codelets walk, also a topological one, so the
// bits stay. The next factor kernel gathers the values. It exists for the
// evidence: the natural-ns/op column of BenchmarkNativeKernels and the
// any-order arm of the kernel property test.
func NaturalOrderSweeps(p Preconditioner) {
	var (
		sys *System
		ts  *triSchedule
	)
	switch p := p.(type) {
	case *ILU:
		sys, ts = p.Sys, p.tri
	case *DILU:
		sys, ts = p.Sys, p.tri
	default:
		panic(fmt.Sprintf("solver: NaturalOrderSweeps on %T, which has no packed sweeps", p))
	}
	for bi := range sys.blocks {
		b := &sys.blocks[bi]
		up, down := make([]int, b.owned), make([]int, b.owned)
		for i := range up {
			up[i], down[i] = i, b.owned-1-i
		}
		ts.fwd[bi] = packSweep(b, up, true, ts.fwd[bi].diag != nil)
		ts.bwd[bi] = packSweep(b, down, false, true)
	}
}

// sweepOperands lists, per block of the system's shared table, the z and r
// slices a native substitution sweep works on.
type sweepOperands struct{ z, r []float32 }

func (sys *System) sweepOperands(z, r Tensor) []sweepOperands {
	ops := make([]sweepOperands, len(sys.blocks))
	for i, b := range sys.blocks {
		ops[i] = sweepOperands{z: z.Buf(b.tile).F32, r: r.Buf(b.tile).F32}
	}
	return ops
}

// ILU is the Incomplete LU factorization preconditioner with zero fill-in,
// ILU(0) (paper §V-E). The factorization and both substitution sweeps run on
// the device, parallelized across the six worker threads with level-set
// scheduling. Factorization and substitution act on the tile-local block
// only: couplings into the halo are disregarded, which is the block-Jacobi
// behaviour the paper identifies as the cost of decomposing across thousands
// of small subdomains (§VI-D).
type ILU struct {
	Sys *System

	fvals [][]float32 // factored off-diagonal values (L strictly lower, U upper)
	fdiag [][]float32 // factored U diagonal
	tri   *triSchedule
}

// Name implements Preconditioner.
func (*ILU) Name() string { return "ilu0" }

// factorILU0 runs the IKJ elimination of block b into the preallocated
// (fdiag, fvals). pos is a scratch of b.owned entries, all -1 on entry and on
// return. rowCost, when non-nil, receives the per-row cycle cost the
// simulator bills; it depends on the pattern alone.
func factorILU0(b *tileBlock, fdiag, fvals []float32, pos []int32, rowCost []uint64) {
	copy(fvals, b.vals)
	copy(fdiag, b.diag)
	owned := int32(b.owned)
	rowPtr, cols := b.rowPtr, b.cols
	for i := int32(0); i < owned; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		for k := lo; k < hi; k++ {
			if j := cols[k]; j < owned {
				pos[j] = k
			}
		}
		var flops uint64
		for k := lo; k < hi; k++ {
			c := cols[k]
			if c >= i || c >= owned {
				continue
			}
			if fdiag[c] == 0 {
				// Zero pivot: neutralize like HYPRE's ILU does so
				// the preconditioner degrades instead of producing
				// infinities.
				fdiag[c] = 1e-30
			}
			piv := fvals[k] / fdiag[c]
			fvals[k] = piv
			flops += ipu.Cost(ipu.OpDiv, ipu.F32)
			for kk := rowPtr[c]; kk < rowPtr[c+1]; kk++ {
				j := cols[kk]
				if j <= c || j >= owned {
					continue
				}
				u := fvals[kk]
				if j == i {
					fdiag[i] -= piv * u
					flops += ipu.Cost(ipu.OpFMA, ipu.F32)
				} else if pp := pos[j]; pp >= 0 {
					fvals[pp] -= piv * u
					flops += ipu.Cost(ipu.OpFMA, ipu.F32)
				}
			}
		}
		if rowCost != nil {
			rowCost[i] = flops + ipu.Cost(ipu.OpFMA, ipu.F32)
		}
		for k := lo; k < hi; k++ {
			if j := cols[k]; j < owned {
				pos[j] = -1
			}
		}
	}
	for i := range fdiag {
		if fdiag[i] == 0 {
			fdiag[i] = 1e-30
		}
	}
}

// newPosScratch returns the all -1 scratch factorILU0 needs for n rows.
func newPosScratch(n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// SetupStep implements Preconditioner: it schedules the on-device ILU(0)
// factorization (one compute set; each tile factors its local block, workers
// parallelized by level-set scheduling).
func (p *ILU) SetupStep() {
	sys := p.Sys
	p.tri, _ = buildTriSchedule(sys, false)
	p.fvals = make([][]float32, len(sys.Locals))
	p.fdiag = make([][]float32, len(sys.Locals))
	// SRAM for the factor copies; an overflow surfaces as a failed program
	// step, not a panic.
	for t, lm := range sys.Locals {
		if err := sys.Sess.M.Alloc(t, 4*(len(lm.Vals)+lm.NumOwned)); err != nil {
			err = fmt.Errorf("solver: ILU factors on tile %d: %w", t, err)
			sys.Sess.Append(graph.HostCall{Name: "ilu0:alloc", Fn: func() error { return err }})
			return
		}
		p.fvals[t] = make([]float32, len(lm.Vals))
		p.fdiag[t] = make([]float32, lm.NumOwned)
	}
	cs := graph.NewComputeSet("ilu0:factor", "ILU(0) Factor")
	workers := sys.Sess.M.Config().WorkersPerTile
	maxOwned := 0
	for bi := range sys.blocks {
		b := &sys.blocks[bi]
		t := b.tile
		if b.owned > maxOwned {
			maxOwned = b.owned
		}
		// The factorization follows the same dependency DAG as the forward
		// sweep and is billed its level-set parallel cost. The row costs
		// depend on the pattern alone, so the first run computes the bill
		// (rebuilding the lower schedule it needs only here) and later runs
		// — re-factorizations after a values refresh, MPIR outer steps —
		// reuse it. The position scratch is the codelet's own: tiles factor
		// concurrently across host shards.
		var (
			pos  []int32
			cost uint64
		)
		cs.Add(t, graph.CodeletFunc(func() uint64 {
			if cost == 0 {
				pos = newPosScratch(b.owned)
				rowCost := make([]uint64, b.owned)
				factorILU0(b, p.fdiag[t], p.fvals[t], pos, rowCost)
				cost = levelset.Lower(b.owned, b.rowPtr, b.cols).Assign(workers, nil).
					CriticalCost(func(i int) uint64 { return rowCost[i] }, levelSyncCycles) + workerStart
				return cost
			}
			factorILU0(b, p.fdiag[t], p.fvals[t], pos, nil)
			return cost
		}))
	}
	pos := newPosScratch(maxOwned) // tiles factor one after another natively
	// The factor kernels touch the matrix and factor arrays only, no tensor.
	// The factorization stays in storage order, single-sourced with the
	// codelet; the packed sweeps then gather what they read.
	cs.NativeKernel = graph.OpaqueKernel(func() {
		for bi := range sys.blocks {
			b := &sys.blocks[bi]
			fvals, fdiag := p.fvals[b.tile], p.fdiag[b.tile]
			factorILU0(b, fdiag, fvals, pos, nil)
			p.tri.fwd[bi].gather(fvals, nil)
			p.tri.bwd[bi].gather(fvals, fdiag)
		}
	}, nil, nil)
	sys.Sess.Append(graph.Compute{Set: cs})
}

// ApplyStep implements Preconditioner: z = U⁻¹ L⁻¹ r via level-set-scheduled
// forward and backward substitution (two compute sets, each one codelet per
// tile internally fanned out to six workers — the IPUTHREADING pattern). The
// native kernels run the same two sweeps over the packed factors, in level
// order.
func (p *ILU) ApplyStep(z, r Tensor) {
	sys := p.Sys
	ops := sys.sweepOperands(z, r)
	fwd := graph.NewComputeSet("ilu0:forward", "ILU(0) Solve")
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}

		zb, rb := z.Buf(t), r.Buf(t)
		cost := p.tri.fwdCost[t]
		fwd.Add(t, graph.CodeletFunc(func() uint64 {
			zv, rv := zb.F32, rb.F32
			fvals := p.fvals[t]
			for i := 0; i < lm.NumOwned; i++ {
				s := rv[i]
				for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
					if j := int(lm.Cols[k]); j < i {
						s -= fvals[k] * zv[j]
					}
				}
				zv[i] = s
			}
			return cost
		}))
	}
	fwd.NativeKernel = graph.OpaqueKernel(func() {
		for bi := range ops {
			p.tri.fwd[bi].solveUnit(ops[bi].z, ops[bi].r)
		}
	}, sys.blockBufs(nil, r), sys.blockBufs(nil, z))
	sys.Sess.Append(graph.Compute{Set: fwd})

	bwd := graph.NewComputeSet("ilu0:backward", "ILU(0) Solve")
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}

		zb := z.Buf(t)
		cost := p.tri.bwdCost[t]
		bwd.Add(t, graph.CodeletFunc(func() uint64 {
			zv := zb.F32
			fvals, fdiag := p.fvals[t], p.fdiag[t]
			for i := lm.NumOwned - 1; i >= 0; i-- {
				s := zv[i]
				for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
					if j := int(lm.Cols[k]); j > i && j < lm.NumOwned {
						s -= fvals[k] * zv[j]
					}
				}
				zv[i] = s / fdiag[i]
			}
			return cost
		}))
	}
	bwd.NativeKernel = graph.OpaqueKernel(func() {
		for bi := range ops {
			p.tri.bwd[bi].solve(ops[bi].z, ops[bi].z)
		}
	}, sys.blockBufs(nil, z), sys.blockBufs(nil, z))
	sys.Sess.Append(graph.Compute{Set: bwd})
}

// DILU is the diagonal-based incomplete LU preconditioner (paper §V-E): only
// a modified diagonal is computed in the factorization, reducing cost and
// memory versus ILU(0) while reusing the original off-diagonal values in the
// substitution sweeps.
type DILU struct {
	Sys *System

	fdiag [][]float32
	tri   *triSchedule
}

// Name implements Preconditioner.
func (*DILU) Name() string { return "dilu" }

// factorDILU computes block b's DILU diagonal
// d_i = a_ii - Σ_{j<i} a_ij * a_ji / d_j into the preallocated fdiag.
func factorDILU(b *tileBlock, fdiag []float32) {
	copy(fdiag, b.diag)
	rowPtr, cols, vals := b.rowPtr, b.cols, b.vals
	for i := 0; i < b.owned; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			c := int(cols[k])
			if c >= i || c >= b.owned {
				continue
			}
			// Find the mirrored entry a_ci.
			aci := float32(0)
			for kk := rowPtr[c]; kk < rowPtr[c+1]; kk++ {
				if int(cols[kk]) == i {
					aci = vals[kk]
					break
				}
			}
			if aci != 0 {
				fdiag[i] -= vals[k] * aci / fdiag[c]
			}
		}
	}
}

// SetupStep implements Preconditioner: schedules the DILU diagonal
// factorization over the tile-local block.
func (p *DILU) SetupStep() {
	sys := p.Sys
	tri, lowers := buildTriSchedule(sys, true)
	p.tri = tri
	p.fdiag = make([][]float32, len(sys.Locals))
	for t, lm := range sys.Locals {
		if err := sys.Sess.M.Alloc(t, 4*lm.NumOwned); err != nil {
			err = fmt.Errorf("solver: DILU diagonal on tile %d: %w", t, err)
			sys.Sess.Append(graph.HostCall{Name: "dilu:alloc", Fn: func() error { return err }})
			return
		}
		p.fdiag[t] = make([]float32, lm.NumOwned)
	}
	cs := graph.NewComputeSet("dilu:factor", "DILU Factor")
	workers := sys.Sess.M.Config().WorkersPerTile
	for bi := range sys.blocks {
		b := &sys.blocks[bi]
		t := b.tile
		// Two FMAs per row over the forward sweep's DAG: a static bill.
		cost := lowers[t].Assign(workers, nil).CriticalCost(func(i int) uint64 {
			return 2 * ipu.Cost(ipu.OpFMA, ipu.F32)
		}, levelSyncCycles) + workerStart
		cs.Add(t, graph.CodeletFunc(func() uint64 {
			factorDILU(b, p.fdiag[t])
			return cost
		}))
	}
	cs.NativeKernel = graph.OpaqueKernel(func() {
		for bi := range sys.blocks {
			b := &sys.blocks[bi]
			factorDILU(b, p.fdiag[b.tile])
			p.tri.fwd[bi].gather(b.vals, p.fdiag[b.tile])
			p.tri.bwd[bi].gather(b.vals, p.fdiag[b.tile])
		}
	}, nil, nil)
	sys.Sess.Append(graph.Compute{Set: cs})
}

// ApplyStep implements Preconditioner: z = (D+U)⁻¹ D (D+L)⁻¹ r with the DILU
// diagonal D, via level-set-scheduled sweeps; the native kernels run packed
// sweeps like ILU's, over the original off-diagonal values.
func (p *DILU) ApplyStep(z, r Tensor) {
	sys := p.Sys
	ops := sys.sweepOperands(z, r)
	fwd := graph.NewComputeSet("dilu:forward", "DILU Solve")
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}

		zb, rb := z.Buf(t), r.Buf(t)
		cost := p.tri.fwdCost[t]
		fwd.Add(t, graph.CodeletFunc(func() uint64 {
			zv, rv := zb.F32, rb.F32
			vals, fdiag := sys.vals[t], p.fdiag[t]
			for i := 0; i < lm.NumOwned; i++ {
				s := rv[i]
				for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
					if j := int(lm.Cols[k]); j < i {
						s -= vals[k] * zv[j]
					}
				}
				zv[i] = s / fdiag[i]
			}
			return cost
		}))
	}
	fwd.NativeKernel = graph.OpaqueKernel(func() {
		for bi := range ops {
			p.tri.fwd[bi].solve(ops[bi].z, ops[bi].r)
		}
	}, sys.blockBufs(nil, r), sys.blockBufs(nil, z))
	sys.Sess.Append(graph.Compute{Set: fwd})

	bwd := graph.NewComputeSet("dilu:backward", "DILU Solve")
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}

		zb := z.Buf(t)
		cost := p.tri.bwdCost[t]
		bwd.Add(t, graph.CodeletFunc(func() uint64 {
			zv := zb.F32
			vals, fdiag := sys.vals[t], p.fdiag[t]
			for i := lm.NumOwned - 1; i >= 0; i-- {
				s := float32(0)
				for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
					if j := int(lm.Cols[k]); j > i && j < lm.NumOwned {
						s += vals[k] * zv[j]
					}
				}
				zv[i] -= s / fdiag[i]
			}
			return cost
		}))
	}
	bwd.NativeKernel = graph.OpaqueKernel(func() {
		for bi := range ops {
			p.tri.bwd[bi].correct(ops[bi].z)
		}
	}, sys.blockBufs(nil, z), sys.blockBufs(nil, z))
	sys.Sess.Append(graph.Compute{Set: bwd})
}
