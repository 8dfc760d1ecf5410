// Algorithm-based fault tolerance (ABFT) for the SpMV at the heart of every
// solver in the suite: a checksum-carrying multiply in the Huang–Abraham
// style. At enable time the system computes the global column-sum vector
// c = Aᵀ1 (and |A|ᵀ1 for the error threshold) and scatters it across the
// tiles in the owned-vector layout. Every scheduled SpMV then appends a fused
// per-tile check kernel computing three partial sums — Σy, c·x and the
// |A|ᵀ1·|x| noise scale — followed by a host comparison of 1ᵀ(Ax) against
// c·x. The checksum side reads only *owned* x values while the SpMV reads the
// exchanged halo copies, so a corrupted halo word breaks the identity and is
// detected; a flipped bit in the SpMV output y breaks it directly.
//
// Detections never error out of the scheduled program: the check records a
// pending detection that the solver's monitor callback consumes on the next
// iteration boundary and routes through its fail() path — tripping the
// checkpoint/restart guard when a Recovery policy is attached, and otherwise
// stopping the solve with a typed ErrBreakdown. Both backends run the one
// check kernel (the simulator bills it per tile), so the check itself is
// bit-identical across them.
package solver

import (
	"math"

	"ipusparse/internal/graph"
	"ipusparse/internal/tensordsl"
)

// DefaultABFTTol is the relative checksum tolerance when EnableABFT is called
// with 0. It sits far above float32 rounding noise for any system that fits a
// simulated machine (the noise scale |A|ᵀ1·|x| + |Σy| multiplies it), so only
// corruptions that actually perturb the solve trip it; anything below the
// threshold is smaller than the working-precision noise floor and is caught
// by the final residual verification instead.
const DefaultABFTTol = 1e-3

// abftVerifySlack widens the solve tolerance for the final scheduled residual
// verification of a converged ABFT solve: the float32 recursion residual
// legitimately sits a couple of orders above the extended-precision truth
// near the tolerance, so the rejection threshold is slack*Tol.
const abftVerifySlack = 100.0

// abftState is the per-system ABFT context: the distributed checksum
// vectors, the per-tile partial-sum slots the fused check kernels write, and
// the per-run detection bookkeeping host callbacks maintain.
type abftState struct {
	tol float64

	// c[t][i] is the global column sum Σ_k A[k][g] of the column owned as
	// local index i on tile t; cabs is the same over |A|. Host-side state:
	// ABFT metadata is assumed protected (it is not a registered device
	// buffer, so fault campaigns cannot flip it). Stored in the matrix's
	// working precision — the f32 rounding of the column sums is orders of
	// magnitude below the tol*(noise scale) threshold — which halves the
	// bytes the memory-bound check kernel streams per SpMV.
	c    [][]float32
	cabs [][]float32

	// Per-tile partials of the fused check kernel (one slot per tile, written
	// by the kernel, summed by the host check).
	sy, cx, scale []float64
	active        []bool

	// Per-run bookkeeping (reset by ABFTResetRun).
	checks   uint64
	detected []string // kernel tag per detection, in program order
	pending  string   // unconsumed detection reason ("" = none)

	// Global column-sum scratch in original row numbering, kept so a
	// values-only refresh recomputes the checksums without allocating.
	cg, cga []float64
}

// EnableABFT arms checksum-carrying SpMV on the system. It must be called
// before any solver schedules work (the check is appended to every SpMV
// scheduled afterwards). tol is the relative checksum tolerance; 0 selects
// DefaultABFTTol. Extended-precision residual sweeps (ResidualExt) are not
// checked — they are already a verification pass of the MPIR outer loop.
func (sys *System) EnableABFT(tol float64) {
	if sys.abft != nil {
		return
	}
	if tol <= 0 {
		tol = DefaultABFTTol
	}
	nt := len(sys.Locals)
	a := &abftState{
		tol:    tol,
		c:      make([][]float32, nt),
		cabs:   make([][]float32, nt),
		sy:     make([]float64, nt),
		cx:     make([]float64, nt),
		scale:  make([]float64, nt),
		active: make([]bool, nt),
	}
	a.cg = make([]float64, sys.n)
	a.cga = make([]float64, sys.n)
	for t := range sys.Locals {
		tl := &sys.Layout.Tiles[t]
		a.c[t] = make([]float32, tl.NumOwned)
		a.cabs[t] = make([]float32, tl.NumOwned)
		a.active[t] = tl.NumOwned > 0
	}
	sys.abft = a
	sys.abftComputeChecksums()
}

// abftComputeChecksums (re)derives the global column sums c = Aᵀ1 and
// |A|ᵀ1 from the current tile-local value arrays and scatters them into the
// owned-vector layout. Called at enable time and again by RefreshValues after
// a values-only matrix update; all buffers are preallocated so the refresh
// path does not allocate.
func (sys *System) abftComputeChecksums() {
	a := sys.abft
	// Global column sums: every stored entry A[i][j] contributes to column j.
	// Column indices inside a tile block are local (owned or halo); both map
	// back to global rows through the layout.
	cg, cga := a.cg, a.cga
	for g := range cg {
		cg[g], cga[g] = 0, 0
	}
	for t, lm := range sys.Locals {
		tl := &sys.Layout.Tiles[t]
		for i := 0; i < lm.NumOwned; i++ {
			d := float64(sys.diag[t][i])
			g := tl.Owned[i]
			cg[g] += d
			cga[g] += math.Abs(d)
			for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
				j := int(lm.Cols[k])
				if j < lm.NumOwned {
					g = tl.Owned[j]
				} else {
					g = tl.Halo[j-lm.NumOwned]
				}
				v := float64(sys.vals[t][k])
				cg[g] += v
				cga[g] += math.Abs(v)
			}
		}
	}
	// Scatter to the owned-vector layout.
	for t := range sys.Locals {
		tl := &sys.Layout.Tiles[t]
		for i, g := range tl.Owned {
			a.c[t][i] = float32(cg[g])
			a.cabs[t][i] = float32(cga[g])
		}
	}
}

// abftRefresh recomputes the column checksums after a values-only matrix
// refresh (no-op when ABFT is not armed).
func (sys *System) abftRefresh() {
	if sys.abft == nil {
		return
	}
	sys.abftComputeChecksums()
}

// ABFTEnabled reports whether checksum-carrying SpMV is armed.
func (sys *System) ABFTEnabled() bool { return sys.abft != nil }

// ABFTResetRun re-arms the per-run detection bookkeeping. The core pipeline
// calls it before every execution of a prepared program; direct engine users
// call it between runs themselves.
func (sys *System) ABFTResetRun() {
	if sys.abft == nil {
		return
	}
	sys.abft.checks = 0
	sys.abft.detected = sys.abft.detected[:0]
	sys.abft.pending = ""
}

// ABFTRunReport returns the run's check count and the kernel tag of each
// detection in program order. The slice aliases internal state valid until
// the next ABFTResetRun; callers that retain it must copy.
func (sys *System) ABFTRunReport() (checks uint64, detected []string) {
	if sys.abft == nil {
		return 0, nil
	}
	return sys.abft.checks, sys.abft.detected
}

// abftConsume returns the pending detection's breakdown reason and clears it
// ("" when none is pending). Solver monitor callbacks call this once per
// iteration so a detection inside the iteration's SpMV trips the solver's
// own fail path, not an opaque program error.
func (sys *System) abftConsume() string {
	if sys.abft == nil || sys.abft.pending == "" {
		return ""
	}
	r := sys.abft.pending
	sys.abft.pending = ""
	return r
}

// abftNote records a detection that is consumed at the point of discovery
// (dot-guard and final-verification failures) so it still counts in the
// detection telemetry.
func (sys *System) abftNote(kernel string) {
	if sys.abft == nil {
		return
	}
	sys.abft.detected = append(sys.abft.detected, kernel)
}

// detect records a checksum failure in kernel and arms the pending detection
// for the next monitor consultation (keeping the first when several checks
// fire between consultations).
func (a *abftState) detect(kernel string) {
	a.detected = append(a.detected, kernel)
	if a.pending == "" {
		a.pending = "abft-" + kernel
	}
}

// abftMonotonicity is the dot/norm-kernel divergence guard: the recursion
// residual of a healthy Krylov solve oscillates but never explodes four
// orders of magnitude past its best value AND past its starting point at
// once. Only corruption produces that signature (residualCheck already
// catches NaN/Inf before this runs).
func abftMonotonicity(relres, best float64) string {
	if relres > 1e4 && relres > 1e6*best {
		return "abft-monotonicity"
	}
	return ""
}

// abftCheckCost models the fused three-sum check vertex: per element one FMA
// pair on the checksum side plus the y accumulation, aux-bound like every
// gather-light streaming kernel (~3 issue bundles per element).
func abftCheckCost(n int) uint64 {
	return uint64(n)*18 + workerStart
}

// scheduleABFTCheck appends the checksum verification of dst = A*src to the
// program: a fused per-tile partial kernel, an accounting-only gather of the
// partials, and the host comparison. Called by SpMV when ABFT is enabled.
func (sys *System) scheduleABFTCheck(dst, src *tensordsl.Tensor) {
	a := sys.abft
	cs := graph.NewComputeSet("abft:"+dst.Name, "ABFT")
	for _, b := range sys.blocks {
		cs.Add(b.tile, graph.Fixed(abftCheckCost(b.owned)))
	}
	// The check's partials live in the ABFT state, not in a tensor.
	cs.NativeKernel = graph.OpaqueKernel(sys.nativeABFTCheck(dst, src), sys.blockBufs(nil, src, dst), nil)
	sys.Sess.Append(graph.Compute{Set: cs})

	// Gather the three per-tile partials to tile 0 (accounting-only moves:
	// the host check reads the slots directly, like the reduction gathers).
	var gather []graph.Move
	for t := 1; t < len(sys.Locals); t++ {
		if a.active[t] {
			gather = append(gather, graph.Move{SrcTile: t, DstTiles: []int{0}, Bytes: 24})
		}
	}
	if len(gather) > 0 {
		sys.Sess.Append(graph.Exchange{Name: "abft:" + dst.Name + ":gather", Label: "ABFT", Moves: gather})
	}

	sys.Sess.Append(graph.HostCall{Name: "abft:" + dst.Name + ":check", Fn: func() error {
		var sy, cx, scale float64
		for t, act := range a.active {
			if !act {
				continue
			}
			sy += a.sy[t]
			cx += a.cx[t]
			scale += a.scale[t]
		}
		a.checks++
		diff := sy - cx
		if math.IsNaN(diff) || math.Abs(diff) > a.tol*(scale+1e-30) {
			a.detect("spmv")
		}
		return nil
	}})
}

// abftPartial is the shared per-tile kernel body: Σy, c·x and the noise
// scale |A|ᵀ1·|x| + |Σy|, accumulated in float64. (|Σy| rather than Σ|y|:
// the SpMV's own f32 rounding — eps32 per entry of |A||x| — is what the
// scale must cover, and its dominant term is |A|ᵀ1·|x|; the cheap |Σy|
// cancellation guard keeps the threshold robust without a second per-element
// Abs chain.) Both backends run it through
// the check kernel, so the partials are bit-identical across them by
// construction. The accumulation is four-way interleaved (index i mod 4
// selects the accumulator, lanes combined pairwise at the end) — a fixed,
// deterministic order that breaks the serial float64 dependency chains,
// which otherwise dominate the check's cost on the native serving path.
func abftPartial(a *abftState, t int, x, y, c, cabs []float32, n int) {
	x, y, c, cabs = x[:n], y[:n], c[:n], cabs[:n]
	var sy0, sy1, sy2, sy3 float64
	var cx0, cx1, cx2, cx3 float64
	var sc0, sc1, sc2, sc3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		y0, x0 := float64(y[i]), float64(x[i])
		y1, x1 := float64(y[i+1]), float64(x[i+1])
		y2, x2 := float64(y[i+2]), float64(x[i+2])
		y3, x3 := float64(y[i+3]), float64(x[i+3])
		sy0 += y0
		sy1 += y1
		sy2 += y2
		sy3 += y3
		cx0 += float64(c[i]) * x0
		cx1 += float64(c[i+1]) * x1
		cx2 += float64(c[i+2]) * x2
		cx3 += float64(c[i+3]) * x3
		sc0 += float64(cabs[i]) * math.Abs(x0)
		sc1 += float64(cabs[i+1]) * math.Abs(x1)
		sc2 += float64(cabs[i+2]) * math.Abs(x2)
		sc3 += float64(cabs[i+3]) * math.Abs(x3)
	}
	for ; i < n; i++ {
		yv, xv := float64(y[i]), float64(x[i])
		sy0 += yv
		cx0 += float64(c[i]) * xv
		sc0 += float64(cabs[i]) * math.Abs(xv)
	}
	sy := (sy0 + sy1) + (sy2 + sy3)
	a.sy[t] = sy
	a.cx[t] = (cx0 + cx1) + (cx2 + cx3)
	a.scale[t] = (sc0 + sc1) + (sc2 + sc3) + math.Abs(sy)
}

// nativeABFTCheck is the flat host-speed form of the check kernel: the same
// per-tile partials in the same tile order.
func (sys *System) nativeABFTCheck(dst, src *tensordsl.Tensor) func() {
	a := sys.abft
	type block struct {
		t       int
		x, y    []float32
		c, cabs []float32
		n       int
	}
	var blocks []block
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}
		blocks = append(blocks, block{
			t: t, x: src.Buf(t).F32, y: dst.Buf(t).F32,
			c: a.c[t], cabs: a.cabs[t], n: lm.NumOwned,
		})
	}
	return func() {
		for _, b := range blocks {
			abftPartial(a, b.t, b.x, b.y, b.c, b.cabs, b.n)
		}
	}
}

// scheduleABFTVerify appends the final residual verification of a converged
// ABFT solve that is not an MPIR correction: when claimed() reports
// convergence, recompute r = b − A·x with a scheduled SpMV and reject the
// answer if the true relative residual sits more than abftVerifySlack past
// the solve tolerance. onFail runs inside the verification's host callback
// with the offending true residual — the solver routes it into its
// done-callback state so the solve surfaces a typed breakdown instead of a
// silently wrong answer.
func (sys *System) scheduleABFTVerify(name string, x, b *tensordsl.Tensor, tol float64,
	claimed func() bool, bnorm func() float64, onFail func(trueRel float64)) {
	if sys.abft == nil || sys.correction || tol <= 0 {
		return
	}
	ts := sys.Sess
	vax := sys.Vector(name + ":abft-vax")
	vr := sys.Vector(name + ":abft-vr")
	ts.If(claimed, func() {
		sys.SpMV(vax, x)
		vr.Assign(tensordsl.Sub(b, vax))
		vd := ts.Dot(vr, vr)
		ts.HostCallback(name+":abft-verify", func() error {
			// The verification SpMV runs its own checksum; a detection there
			// is as disqualifying as a bad residual.
			checksum := sys.abftConsume()
			v := vd.Value()
			trueRel := math.Sqrt(math.Abs(v)) / bnorm()
			if checksum != "" || residualCheck(v) != "" || trueRel > abftVerifySlack*tol {
				sys.abftNote("final-verify")
				onFail(trueRel)
			}
			return nil
		})
	}, nil)
}

// abftBreakdownError builds the typed rejection of an ABFT-detected solve
// that could not be recovered (no Recovery policy, spent budget, or a failed
// final verification).
func abftBreakdownError(solverName, reason string, iter int) error {
	if reason == "" {
		reason = "abft"
	}
	return &ErrBreakdown{Solver: solverName, Reason: reason, Iter: iter}
}
