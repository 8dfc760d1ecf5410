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
// need per tile: the static level-set parallel costs the simulator bills and
// the L/U split the native sweeps walk. The level schedules themselves are
// setup-time values; nothing keeps them alive.
type triSchedule struct {
	fwdCost []uint64 // per tile, level-set parallel cost of the lower sweep
	bwdCost []uint64
	split   []triSplit
}

// triSplit is one tile's L/U split: row by row, in storage order, the
// positions k (into the tile's Cols, Vals and factor values) of the strictly
// lower entries (Cols[k] < i) and of the owned strictly upper entries
// (i < Cols[k] < NumOwned) — four bytes per owned off-diagonal. A native
// sweep visits exactly the entries its codelet's column test keeps, in the
// same order, so the two are bit-identical.
type triSplit struct {
	lptr, lpos []int32
	uptr, upos []int32
}

// buildTriSchedule computes level-set schedules of the local lower/upper
// triangular patterns (halo columns excluded — they carry lagged values and
// create no dependencies), their six-worker parallel costs and the L/U split.
// It also returns the per-tile lower schedules for callers that bill a
// factorization over the same DAG at setup time.
func buildTriSchedule(sys *System) (*triSchedule, []*levelset.Schedule) {
	ts := &triSchedule{
		fwdCost: make([]uint64, len(sys.Locals)),
		bwdCost: make([]uint64, len(sys.Locals)),
		split:   make([]triSplit, len(sys.Locals)),
	}
	lowers := make([]*levelset.Schedule, len(sys.Locals))
	workers := sys.Sess.M.Config().WorkersPerTile
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}
		lower := levelset.Lower(lm.NumOwned, lm.RowPtr, lm.Cols)
		upper := levelset.Upper(lm.NumOwned, lm.RowPtr, lm.Cols)
		lowers[t] = lower
		sp := triSplit{lptr: make([]int32, lm.NumOwned+1), uptr: make([]int32, lm.NumOwned+1)}
		for i := 0; i < lm.NumOwned; i++ {
			for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
				if c := int(lm.Cols[k]); c < i {
					sp.lpos = append(sp.lpos, k)
				} else if c > i && c < lm.NumOwned {
					sp.upos = append(sp.upos, k)
				}
			}
			sp.lptr[i+1], sp.uptr[i+1] = int32(len(sp.lpos)), int32(len(sp.upos))
		}
		ts.split[t] = sp
		// Per-row sweep cost under the issue-bundle model (see spmvCost):
		// the gather-heavy aux side (value load, index load, address, load
		// z[j], plus level-list indirection per row) bounds the bundle
		// count, each bundle taking one six-cycle issue slot per worker.
		rowCostL := func(i int) uint64 {
			return sweepRowCost(uint64(sp.lptr[i+1] - sp.lptr[i]))
		}
		rowCostU := func(i int) uint64 {
			return sweepRowCost(uint64(sp.uptr[i+1]-sp.uptr[i])) + ipu.Cost(ipu.OpDiv, ipu.F32)
		}
		ts.fwdCost[t] = lower.Assign(workers, nil).CriticalCost(rowCostL, levelSyncCycles) + workerStart
		ts.bwdCost[t] = upper.Assign(workers, nil).CriticalCost(rowCostU, levelSyncCycles) + workerStart
	}
	return ts, lowers
}

// forward is the native forward substitution over the split, in natural row
// order: z_i = (r_i - Σ_{L entries} vals[k] * z[cols[k]]) / diag_i, with a nil
// diag for a unit diagonal (ILU's L; DILU divides by its diagonal).
func (sp *triSplit) forward(cols []int32, vals, diag, z, r []float32) {
	lptr, lpos := sp.lptr, sp.lpos
	q := lptr[0]
	for i := range z {
		s := r[i]
		for end := lptr[i+1]; q < end; q++ {
			k := lpos[q]
			s -= vals[k] * z[cols[k]]
		}
		if diag != nil {
			s /= diag[i]
		}
		z[i] = s
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
	p.tri, _ = buildTriSchedule(sys)
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
	cs.NativeKernel = graph.OpaqueKernel(func() {
		for bi := range sys.blocks {
			b := &sys.blocks[bi]
			factorILU0(b, p.fdiag[b.tile], p.fvals[b.tile], pos, nil)
		}
	}, nil, nil)
	sys.Sess.Append(graph.Compute{Set: cs})
}

// ApplyStep implements Preconditioner: z = U⁻¹ L⁻¹ r via level-set-scheduled
// forward and backward substitution (two compute sets, each one codelet per
// tile internally fanned out to six workers — the IPUTHREADING pattern). The
// native kernels run the same two sweeps in natural row order over the L/U
// split.
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
		for bi := range sys.blocks {
			b := &sys.blocks[bi]
			p.tri.split[b.tile].forward(b.cols, p.fvals[b.tile], nil, ops[bi].z, ops[bi].r)
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
		for bi := range sys.blocks {
			b := &sys.blocks[bi]
			sp := &p.tri.split[b.tile]
			uptr, upos, cols := sp.uptr, sp.upos, b.cols
			fvals, fdiag := p.fvals[b.tile], p.fdiag[b.tile]
			zv := ops[bi].z
			for i := len(zv) - 1; i >= 0; i-- {
				s := zv[i]
				for _, k := range upos[uptr[i]:uptr[i+1]] {
					s -= fvals[k] * zv[cols[k]]
				}
				zv[i] = s / fdiag[i]
			}
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
	tri, lowers := buildTriSchedule(sys)
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
			factorDILU(&sys.blocks[bi], p.fdiag[sys.blocks[bi].tile])
		}
	}, nil, nil)
	sys.Sess.Append(graph.Compute{Set: cs})
}

// ApplyStep implements Preconditioner: z = (D+U)⁻¹ D (D+L)⁻¹ r with the DILU
// diagonal D, via level-set-scheduled sweeps; the native kernels walk the L/U
// split like ILU's.
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
		for bi := range sys.blocks {
			b := &sys.blocks[bi]
			p.tri.split[b.tile].forward(b.cols, b.vals, p.fdiag[b.tile], ops[bi].z, ops[bi].r)
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
		for bi := range sys.blocks {
			b := &sys.blocks[bi]
			sp := &p.tri.split[b.tile]
			uptr, upos, cols, vals, fdiag := sp.uptr, sp.upos, b.cols, b.vals, p.fdiag[b.tile]
			zv := ops[bi].z
			for i := len(zv) - 1; i >= 0; i-- {
				s := float32(0)
				for _, k := range upos[uptr[i]:uptr[i+1]] {
					s += vals[k] * zv[cols[k]]
				}
				zv[i] -= s / fdiag[i]
			}
		}
	}, sys.blockBufs(nil, z), sys.blockBufs(nil, z))
	sys.Sess.Append(graph.Compute{Set: bwd})
}
