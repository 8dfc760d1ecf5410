package core

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/fault"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/telemetry"
)

// Fault campaigns on prepared pipelines: the injector's decision stream is
// re-armed from its seed before every execution (ResetForRun), so each warm
// Solve reproduces the campaign exactly as a cold Solve of the same program
// would. This is what lets the service layer run deterministic chaos studies
// through warm pipelines instead of rebuilding one per faulted solve.

// Prepared is a compiled solver pipeline bound to one matrix: the simulated
// machine, the partitioned and uploaded system, the constructed solver
// hierarchy and the scheduled TensorDSL program. It is the amortization seam
// of the service layer — Prepare once per sparsity pattern, then Solve per
// right-hand side, skipping partitioning, upload and symbolic scheduling
// entirely (the PopSparse split between pattern-dependent planning and
// per-call execution).
//
// A Prepared serializes its own Solve calls with an internal mutex; for
// concurrent solves on one matrix, create replicas (internal/serve pools
// them per cache key).
type Prepared struct {
	mu sync.Mutex

	machineCfg ipu.Config
	ctx        *Context
	sys        *solver.System
	xT, bT     solver.Tensor
	st         solver.RunStats
	report     graph.Report
	inj        *fault.Injector
	n          int
	patternFP  uint64 // sparsity-pattern digest the pipeline was compiled for
	par        int    // engine host parallelism (0 = automatic)

	// Execution backend, fixed at Prepare: its canonical name, the lowered
	// program both backends run and, on sim, the persistent engine that
	// executes and bills it (nil on native).
	backend string
	stream  *graph.Stream
	eng     *graph.Engine
	tracer  *graph.Tracer // the last run's device timeline, nil unless traced

	// Prepare-time option defaults, overridable per Solve call.
	traceOut io.Writer
	// tracePath is the engine.trace config key: each Solve writes its device
	// timeline to this file when no writer-valued trace option overrides it.
	tracePath string
	inst      *coreInstruments

	// Prepare-phase wall times, replayed on the host track of every exported
	// trace so a run's timeline shows the amortized work it skipped.
	prepPartition float64
	prepSchedule  float64
	prepCompile   float64
}

// Prepare runs the pattern-dependent phase of the pipeline: build the
// machine, partition and halo-reorder the matrix, upload it, construct the
// configured solver hierarchy and symbolically execute it into a scheduled
// program. The returned Prepared re-runs that program against new right-hand
// sides without repeating any of this work. Options passed here become the
// pipeline's defaults for every subsequent Solve call.
func Prepare(machineCfg ipu.Config, m *sparse.Matrix, cfg config.Config, strategy PartitionStrategy, opts ...Option) (*Prepared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}
	beName := cfg.EngineBackend()
	if ro.backendSet {
		beName = ro.backend
	}
	// Capability gate: a config that requests simulator-only features on a
	// backend that cannot honor them fails here, with the same typed error
	// the serving layers surface at registration time.
	be, err := config.ResolveBackend(beName, cfg.EngineTrace() != "")
	if err != nil {
		return nil, err
	}
	// The injector must be registered before any tensors exist so bit flips
	// can target every device buffer the program allocates. Both backends
	// consult it at identical program points, so campaigns replay across them.
	var inj *fault.Injector
	if cfg.Fault != nil && cfg.Fault.Rate > 0 {
		inj = fault.New(cfg.Fault.Plan())
	}
	p, err := prepare(machineCfg, m, cfg, strategy, inj, be, newCoreInstruments(ro.reg))
	if err != nil {
		return nil, err
	}
	p.traceOut = ro.trace
	p.tracePath = cfg.EngineTrace()
	if ro.parSet {
		p.par = ro.par
	}
	return p, nil
}

// prepare builds the full pipeline up to (but not including) execution. The
// caller has validated cfg; inj, when non-nil, is registered before any
// tensors exist so bit flips can target every device buffer.
func prepare(machineCfg ipu.Config, m *sparse.Matrix, cfg config.Config, strategy PartitionStrategy, inj *fault.Injector, be string, inst *coreInstruments) (*Prepared, error) {
	ctx, err := NewContext(machineCfg)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		ctx.Session.Registry = inj
	}
	phaseStart := time.Now()
	sys, err := ctx.LoadSystem(m, strategy)
	if err != nil {
		return nil, err
	}
	if cfg.Solver.ABFT {
		// Arm checksum-carrying SpMV before any solver schedules work so
		// every SpMV in the hierarchy carries its check.
		sys.EnableABFT(0)
	}
	partitionSecs := time.Since(phaseStart).Seconds()
	rec, err := config.BuildRecovery(sys, cfg.Recovery)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		machineCfg: machineCfg,
		ctx:        ctx,
		sys:        sys,
		inj:        inj,
		n:          m.N,
		patternFP:  m.PatternFingerprint(),
		par:        cfg.EngineParallelism(),
		backend:    be,
		inst:       inst,
	}
	phaseStart = time.Now()

	if cfg.MPIR != nil {
		ext := cfg.MPIR.ExtScalar()
		p.xT = sys.VectorTyped("x", ext)
		p.bT = sys.VectorTyped("b", ext)
		// The preconditioner is factored once, outside the refinement loop
		// (paper §V-E: the factorization is reused as long as the matrix
		// coefficients remain unchanged).
		pre, err := config.BuildPreconditioner(sys, cfg.Solver.Preconditioner)
		if err != nil {
			return nil, err
		}
		pre.SetupStep()
		inner := cfg.Solver
		mp := &solver.MPIR{
			Sys:     sys,
			ExtType: ext,
			// Each correction solve stops at the tolerance MPIR sets from the
			// outer residual before it runs.
			MakeInner: func(maxIter int) (solver.Solver, *float64) {
				var (
					is  solver.Solver
					tol *float64
				)
				// config.Validate admits no other inner type under mpir.
				switch inner.Type {
				case "richardson":
					rich := &solver.Richardson{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: solver.CorrectionTol}
					is, tol = rich, &rich.Tol
				case "cg":
					cg := &solver.CG{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: solver.CorrectionTol}
					is, tol = cg, &cg.Tol
				case "pbicgstab", "bicgstab":
					bicg := &solver.PBiCGStab{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: solver.CorrectionTol}
					is, tol = bicg, &bicg.Tol
				}
				// Harden the correction solves: a breakdown inside one is a
				// breakdown of the refinement (MPIR propagates it).
				solver.WithRecovery(is, rec)
				return is, tol
			},
			InnerIters: cfg.MPIR.InnerIterations,
			MaxOuter:   cfg.MPIR.MaxOuter,
			Tol:        cfg.MPIR.Tolerance,
		}
		mp.ScheduleSolve(p.xT, p.bT, &p.st)
	} else {
		s, err := config.BuildSolver(sys, cfg)
		if err != nil {
			return nil, err
		}
		if rec != nil && !solver.WithRecovery(s, rec) {
			return nil, fmt.Errorf("core: recovery cannot harden a %q solver", cfg.Solver.Type)
		}
		p.xT = sys.Vector("x")
		p.bT = sys.Vector("b")
		s.ScheduleSolve(p.xT, p.bT, &p.st)
	}

	scheduleSecs := time.Since(phaseStart).Seconds()

	// "Graph compilation": validate the constructed program against the
	// machine before execution, and gather the report.
	phaseStart = time.Now()
	if err := graph.Validate(ctx.Session.Program(), machineCfg); err != nil {
		return nil, err
	}
	p.report = graph.Analyze(ctx.Session.Program())
	// Freeze every compute set now so the first Solve pays no finalization
	// cost and supersteps can shard over the dense tile-sorted form.
	graph.Freeze(ctx.Session.Program())
	// Lower the frozen program to the stream every later Solve runs; the
	// simulator attaches a persistent engine, pre-sized for the program's
	// largest exchange, so steady-state runs allocate nothing.
	if p.stream, err = graph.Lower(ctx.Session.Program(), ctx.Machine.NumTiles()); err != nil {
		return nil, err
	}
	if be == config.BackendSim {
		p.eng = graph.NewEngine(ctx.Machine)
		p.eng.Reserve(p.report.MaxExchangeMoves)
	}
	compileSecs := time.Since(phaseStart).Seconds()

	p.prepPartition, p.prepSchedule, p.prepCompile = partitionSecs, scheduleSecs, compileSecs
	inst.observePhase("partition", partitionSecs)
	inst.observePhase("schedule", scheduleSecs)
	inst.observePhase("compile", compileSecs)
	inst.observeBackend(be)
	return p, nil
}

// PipelineInfo describes a prepared pipeline: the system size, the scheduled
// solver hierarchy, the execution backend and the program analysis gathered
// at prepare time.
type PipelineInfo struct {
	N       int    // rows of the prepared system
	Solver  string // name of the scheduled solver hierarchy
	Backend string // execution backend ("sim" or "native")
	ABFT    bool   // checksum-carrying SpMV armed on the scheduled program
	// PatternFingerprint is the sparsity-pattern digest the pipeline was
	// compiled for: any matrix with this pattern fingerprint can be adopted by
	// UpdateValues without recompiling.
	PatternFingerprint uint64
	Report             graph.Report
}

// Info returns the prepared pipeline's description.
func (p *Prepared) Info() PipelineInfo {
	return PipelineInfo{
		N: p.n, Solver: p.st.Solver, Backend: p.backend,
		ABFT:               p.sys.ABFTEnabled(),
		PatternFingerprint: p.patternFP,
		Report:             p.report,
	}
}

// ErrPatternMismatch is returned by UpdateValues when the new matrix's
// sparsity pattern differs from the one the pipeline was prepared for. The
// serving layer maps it to HTTP 409: the caller must register the matrix as a
// new system (a cold Prepare) instead of refreshing.
var ErrPatternMismatch = fmt.Errorf("core: sparsity pattern differs from the prepared pipeline")

// UpdateValues adopts a values-only update of the prepared matrix: same
// dimension, same RowPtr/Cols structure, new Diag/Vals coefficients. It
// re-lowers only the numeric payloads — per-tile CSR value blocks, snapshot
// tensors (Jacobi/Chebyshev diagonal), the coarse operator, ABFT column
// checksums — into the already-compiled program; partition, halo schedule and
// instruction streams are untouched. Preconditioner refactorization (ILU(0),
// DILU) happens on the next Solve: the factor codelets copy the value blocks
// at run time, on the existing symbolic structure. The next Solve after
// UpdateValues is bit-identical, on either backend, to a Solve on a pipeline
// freshly Prepared with the new values.
//
// A matrix whose pattern fingerprint differs is rejected with a wrapped
// ErrPatternMismatch and the pipeline keeps its current values.
func (p *Prepared) UpdateValues(m *sparse.Matrix) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m == nil {
		return fmt.Errorf("core: UpdateValues: nil matrix")
	}
	if got := m.PatternFingerprint(); got != p.patternFP {
		p.inst.observeRefreshMismatch()
		return fmt.Errorf("%w: prepared p%016x, got p%016x", ErrPatternMismatch, p.patternFP, got)
	}
	start := time.Now()
	// Both backends run against the tile value blocks by reference, so the
	// in-place rewrite is the whole refresh.
	if err := p.sys.RefreshValues(m); err != nil {
		return fmt.Errorf("core: UpdateValues: %w", err)
	}
	p.inst.observeRefresh(time.Since(start).Seconds())
	return nil
}

// Solve re-runs the compiled program against a new right-hand side. The
// solution starts from a zero initial guess, all solver state (checkpoints,
// restart budgets, RunStats counters, machine cycle accounting) is reset
// before execution, so consecutive Solve calls are bit-identical to cold
// Solve calls on a fresh pipeline. Options override the Prepare-time defaults
// for this call only.
func (p *Prepared) Solve(b []float64, opts ...Option) (*Result, error) {
	return p.run(b, applyOptions(opts))
}

// applyOptions folds per-call options into a runOptions value. The fold runs
// in a separate function so the zero-option hot path (warm serving solves)
// never heap-allocates the struct: &ro escapes only in the slow path, which
// zero-option callers never enter.
func applyOptions(opts []Option) runOptions {
	if len(opts) == 0 {
		return runOptions{}
	}
	return applyOptionsSlow(opts)
}

func applyOptionsSlow(opts []Option) runOptions {
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}
	return ro
}

// run executes the prepared program once with the per-call options resolved
// against the Prepare-time defaults.
func (p *Prepared) run(b []float64, ro runOptions) (*Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rr, execWall, err := p.runLocked(b, ro)
	if err != nil {
		return nil, err
	}
	traceOut := ro.trace
	if traceOut == nil {
		traceOut = p.traceOut
	}
	if p.tracer != nil {
		if traceOut == nil && p.tracePath != "" {
			f, err := os.Create(p.tracePath)
			if err != nil {
				return nil, fmt.Errorf("core: engine.trace: %w", err)
			}
			werr := p.writeTrace(f, p.tracer, execWall.Seconds())
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return nil, werr
			}
		} else if err := p.writeTrace(traceOut, p.tracer, execWall.Seconds()); err != nil {
			return nil, err
		}
	}
	stats := p.st
	stats.History = append([]solver.HistPoint(nil), p.st.History...)
	if len(p.st.ABFTDetected) > 0 {
		// Detach the detection list from the system's per-run scratch so the
		// result stays valid across later solves.
		stats.ABFTDetected = append([]string(nil), p.st.ABFTDetected...)
	}
	res := &Result{
		X:               p.sys.GetGlobal(p.xT),
		Stats:           stats,
		Machine:         p.ctx.Machine.Stats(),
		Report:          p.report,
		ExecWallSeconds: execWall.Seconds(),
	}
	if p.eng != nil {
		res.Profile = p.eng.ProfileShares()
	}
	if p.inj != nil {
		res.Faults = p.inj.Events
		res.FaultRetries = rr.FaultRetries
	}
	return res, nil
}

// runLocked resets all per-run state, runs the lowered program once (with
// the engine attached on sim) and flushes post-run telemetry. The caller
// holds p.mu.
func (p *Prepared) runLocked(b []float64, ro runOptions) (graph.RunStats, time.Duration, error) {
	if ro.backendSet {
		return graph.RunStats{}, 0, fmt.Errorf("core: the backend is fixed at Prepare; pass WithBackend to Prepare, not Solve")
	}
	traceOut := ro.trace
	if traceOut == nil {
		traceOut = p.traceOut
	}
	if _, err := config.ResolveBackend(p.backend, traceOut != nil); err != nil {
		return graph.RunStats{}, 0, err
	}
	par := p.par
	if ro.parSet {
		par = ro.par
	}
	inst := p.inst
	if ro.reg != nil && (inst == nil || inst.reg != ro.reg) {
		// Per-call registry override: instrument registration is idempotent,
		// so resolving here is cheap and safe outside the hot path.
		inst = newCoreInstruments(ro.reg)
	}
	if len(b) != p.n {
		return graph.RunStats{}, 0, fmt.Errorf("core: %d right-hand-side values for %d rows", len(b), p.n)
	}
	// Reset everything a previous run left behind: the solution (the next
	// run's initial guess must be zero), the per-run stats the scheduled
	// callbacks write into, and the machine's cycle accounting (so warm
	// history timestamps match a cold run's). Host-side solver state
	// (iteration counters, breakdown guards, checkpoint buffers) is reset by
	// the solvers' own init callbacks when the program starts.
	p.st.ResetForRun()
	p.xT.FillHost(0)
	if err := p.sys.SetGlobal(p.bT, b); err != nil {
		return graph.RunStats{}, 0, err
	}
	p.ctx.Machine.ResetStats()
	if p.inj != nil {
		// Re-arm the campaign so this run draws the same decision stream a
		// cold run of the same program would.
		p.inj.ResetForRun()
	}
	p.sys.ABFTResetRun()

	var inj graph.Injector
	if p.inj != nil {
		inj = p.inj
	}
	var (
		rr  graph.RunStats
		err error
	)
	execStart := time.Now()
	if e := p.eng; e != nil {
		e.ResetProfile()
		e.FaultRetries = 0
		e.SetParallelism(par)
		e.Injector = inj
		var em *graph.EngineMetrics
		if inst != nil {
			em = inst.engine
		}
		e.SetMetrics(em)
		p.tracer = nil
		if traceOut != nil || p.tracePath != "" {
			p.tracer = e.Trace()
		} else {
			e.SetTracer(nil)
		}
		err = e.RunStream(p.stream)
		rr = graph.RunStats{Supersteps: e.Supersteps, FaultRetries: e.FaultRetries}
	} else {
		rr, err = p.stream.Run(inj)
	}
	if err != nil {
		return graph.RunStats{}, 0, err
	}
	execWall := time.Since(execStart)
	if p.sys.ABFTEnabled() {
		// The detection slice aliases per-run state inside the system; it is
		// only read between here and the next run, which holds the same lock.
		p.st.ABFTChecks, p.st.ABFTDetected = p.sys.ABFTRunReport()
	}
	if inst != nil {
		// Post-run flush: per-tile distributions, aggregate cycle counters and
		// the solver outcome — all off the superstep hot path.
		p.ctx.Machine.ObserveMetrics(inst.machine)
		inst.solver.ObserveRun(&p.st)
		inst.observePhase("execute", execWall.Seconds())
		inst.solves.Inc()
	}
	return rr, execWall, nil
}

// SolveStats is the lean per-solve summary of the allocation-free SolveInto
// path: the solver's run counters without the convergence history or profile.
type SolveStats struct {
	Solver          string
	Iterations      int
	Converged       bool
	RelRes          float64
	Restarts        int
	Recovered       bool
	ABFTChecks      uint64
	ExecWallSeconds float64
	// CodeletSets is graph.RunStats.CodeletSets: compute sets the native
	// backend had no kernel for. 0 means the whole solve ran native kernels.
	CodeletSets uint64
	// FusedSets is graph.RunStats.FusedSets: compute sets the native
	// backend executed inside fused kernels. It grows with the iteration
	// count when the solver loop's fusions hold (7 per cg+jacobi iteration).
	FusedSets uint64
}

// SolveInto is the steady-state serving path: it solves for b and writes the
// solution into x (len == Info().N) without allocating — no result vector, no
// history copy, no cycle profile. On the native backend the whole call is
// allocation-free after the first run; on the simulator only the engine's
// profile map entries persist. Options override the Prepare-time defaults for
// this call only.
func (p *Prepared) SolveInto(x, b []float64, opts ...Option) (SolveStats, error) {
	ro := applyOptions(opts)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(x) != p.n {
		return SolveStats{}, fmt.Errorf("core: %d solution slots for %d rows", len(x), p.n)
	}
	rr, execWall, err := p.runLocked(b, ro)
	if err != nil {
		return SolveStats{}, err
	}
	if err := p.sys.GetGlobalInto(x, p.xT); err != nil {
		return SolveStats{}, err
	}
	return SolveStats{
		Solver:          p.st.Solver,
		Iterations:      p.st.Iterations,
		Converged:       p.st.Converged,
		RelRes:          p.st.RelRes,
		Restarts:        p.st.Restarts,
		Recovered:       p.st.Recovered,
		ABFTChecks:      p.st.ABFTChecks,
		ExecWallSeconds: execWall.Seconds(),
		CodeletSets:     rr.CodeletSets,
		FusedSets:       rr.FusedSets,
	}, nil
}

// writeTrace exports the combined run timeline: the prepare-phase wall times
// on the host pipeline track, a solve span covering the device execution, and
// the traced BSP phases on the device compute/exchange/host-call tracks. The
// device timeline starts where the host pipeline spans end, so one Perfetto
// view shows both the amortized preparation work and the run it paid for.
func (p *Prepared) writeTrace(w io.Writer, tracer *graph.Tracer, execWallSecs float64) error {
	tr := &telemetry.Trace{}
	origin := 0.0
	for _, ph := range []struct {
		name string
		secs float64
	}{
		{"prepare.partition", p.prepPartition},
		{"prepare.schedule", p.prepSchedule},
		{"prepare.compile", p.prepCompile},
	} {
		tr.Add(telemetry.Span{
			Name: ph.name, Cat: "pipeline",
			TS: origin, Dur: ph.secs * 1e6,
			PID: telemetry.PIDHost, TID: telemetry.TIDPipeline,
		})
		origin += ph.secs * 1e6
	}
	tr.Add(telemetry.Span{
		Name: "solve", Cat: "pipeline",
		TS: origin, Dur: execWallSecs * 1e6,
		PID: telemetry.PIDHost, TID: telemetry.TIDPipeline,
	})
	if err := tracer.AppendTimeline(tr, p.machineCfg.ClockHz, origin); err != nil {
		return err
	}
	return tr.WriteChrome(w)
}
