package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/halo"
	"ipusparse/internal/partition"
	"ipusparse/internal/serve"
	"ipusparse/internal/sparse"
)

// The layer ladder pushes one right-hand side, single-threaded, through
// progressively taller stacks of the same system and configuration. A layer's
// self time is its rung's median minus the rung below:
//
//	R0 backend.exec_ms     program-reported execution (SolveStats.ExecWallSeconds)
//	R1 core.solveinto_ms   (*Prepared).SolveInto, the lean path
//	R2 core.solve_ms       (*Prepared).Solve, what serving calls today
//	R3 serve.solve_ms      (*serve.Service).Solve in-process: queue, acquire, supervise, verify
//	R4 serve.http_ms       POST to the real ipuserved
//	R5 cluster.http_ms     the same POST through ipurouterd (cluster-mixed only)
//
// Every call records one span; a span's parent is the next-taller rung's span
// of the same repetition. One repetition calls every rung and every probe
// once, back to back, so all medians cover the same stretch of time: the
// reference box's speed drifts by tens of percent within seconds, and rungs
// measured one after another would turn that drift into self time.
var rungNames = []string{"backend.exec_ms", "core.solveinto_ms", "core.solve_ms", "serve.solve_ms", "serve.http_ms", "cluster.http_ms"}

const laneWarmCalls = 2

func rungSpanName(rung, rep int) string { return fmt.Sprintf("%s#%d", rungNames[rung], rep) }

// lane is one call repeated by the ladder: a rung (Rung >= 1, which records
// spans) or a probe (Rung < 0).
type lane struct {
	Rung   int
	Name   string
	Call   func() error
	ms     []float64
	starts []time.Time
}

func (l *lane) median() float64 { return median(l.ms) }

// interleave calls every lane once per repetition, up to c.ladderReps
// repetitions or until c.rungBudget per rung lane is spent (but at least three
// repetitions), after laneWarmCalls unrecorded calls of each.
func (c *runCtx) interleave(lanes []*lane) error {
	rungs := 0
	for _, l := range lanes {
		if l.Rung >= 0 {
			rungs++
		}
		for i := 0; i < laneWarmCalls; i++ {
			if err := l.Call(); err != nil {
				return fmt.Errorf("%s: %w", l.Name, err)
			}
		}
	}
	budget := c.rungBudget * time.Duration(rungs)
	// Each repetition calls the lanes in a fresh seeded order: a call runs
	// faster right after one that left its data in cache (Solve after
	// SolveInto on the same pipeline) and slower after one that evicted it,
	// and a fixed order would bake that into the self times.
	order := subSeed(c.seed, 30)
	begin := time.Now()
	for rep := 0; rep < c.ladderReps; rep++ {
		if rep >= 3 && time.Since(begin) > budget {
			break
		}
		for _, i := range order.Perm(len(lanes)) {
			l := lanes[i]
			t0 := time.Now()
			err := l.Call()
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("%s: %w", l.Name, err)
			}
			l.ms = append(l.ms, float64(t1.Sub(t0))/1e6)
			l.starts = append(l.starts, t0)
			if l.Rung >= 0 {
				parent := ""
				if l.Rung+1 < len(rungNames) {
					parent = rungSpanName(l.Rung+1, rep)
				}
				c.tr.spanParent(rungSpanName(l.Rung, rep), "ladder", l.Rung, rep, t0, t1, parent)
			}
		}
	}
	return nil
}

// allocsDuring reports heap allocations and bytes per call of fn over n calls.
func allocsDuring(n int, fn func() error) (allocs, bytesPer float64, err error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n), nil
}

// timeMedian runs fn n times and returns the median in ms.
func timeMedian(n int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// serveOptions are the options the benchmark's ipuserved runs with, read from
// the same file the daemon is given.
func (c *runCtx) serveOptions(file string) (serve.Options, error) {
	cfg, err := c.loadConfig(file)
	if err != nil {
		return serve.Options{}, err
	}
	return serve.OptionsFromConfig(cfg), nil
}

// systemConfig is the solver configuration a system runs with: its own
// override, or the service default from opts.
func systemConfig(s *system, opts serve.Options) (config.Config, *config.Config, error) {
	if s.Config == nil {
		return opts.Solver, nil, nil
	}
	cfg, err := config.Parse(bytes.NewReader(s.Config))
	if err != nil {
		return config.Config{}, nil, err
	}
	return cfg, &cfg, nil
}

// iterModel is the computed (not measured) work of one solver iteration:
// flops from the recurrence and bytes from array sizes, with the device's
// 4-byte values and 4-byte column indices. Unknown hierarchies report 0.
func iterModel(solver string, n, nnz int) (flops, bytes float64) {
	N, Z := float64(n), float64(nnz)
	switch {
	case strings.HasPrefix(solver, "cg+jacobi"):
		// SpMV, 2 dots, 3 axpy-like updates, z = invd∘r.
		return 2*Z + 11*N, 8*Z + 76*N
	case strings.Contains(solver, "pbicgstab+ilu0"):
		// 2 SpMV, 2 ILU(0) applications (L and U sweeps), 4 dots, 6 updates.
		return 8*Z + 20*N, 32*Z + 120*N
	}
	return 0, 0
}

// inProcess is the in-process half of the ladder: a prepared pipeline and a
// service holding the system, the R1-R3 lanes over them, and what the lanes
// observed.
type inProcess struct {
	c     *runCtx
	sys   *system
	b, x  []float64
	opts  serve.Options
	cfg   config.Config
	over  *config.Config
	prep  *core.Prepared
	svc   *serve.Service
	id    string
	stats core.SolveStats
	exec  []float64 // R0, one per R1 call
	lanes []*lane
}

func (in *inProcess) close() { in.svc.Close() }

// ladderSetup prepares the pipeline and the in-process service with the
// options the daemon runs with and builds the R1-R3 lanes.
func (c *runCtx) ladderSetup(res *result, sys *system, b []float64, opts serve.Options) (*inProcess, error) {
	cfg, override, err := systemConfig(sys, opts)
	if err != nil {
		return nil, err
	}
	in := &inProcess{c: c, sys: sys, b: b, x: make([]float64, sys.M.N), opts: opts, cfg: cfg, over: override}
	prepMs, err := timeMedian(3, func() error {
		in.prep, err = core.Prepare(opts.Machine, sys.M, cfg, opts.Strategy, core.WithBackend("native"))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core.Prepare: %w", err)
	}
	res.layer("core.prepare_ms", prepMs, 3)

	ctx := context.Background()
	regMs, err := timeMedian(3, func() error {
		fresh := serve.New(opts)
		defer fresh.Close()
		_, err := fresh.Register(ctx, sys.M, override)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve.Register: %w", err)
	}
	res.layer("serve.register_ms", regMs, 3)
	in.svc = serve.New(opts)
	info, err := in.svc.Register(ctx, sys.M, override)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("serve.Register: %w", err)
	}
	in.id = info.ID

	in.lanes = []*lane{
		{Rung: 1, Name: rungNames[1], Call: func() error {
			st, err := in.prep.SolveInto(in.x, b)
			in.stats = st
			in.exec = append(in.exec, st.ExecWallSeconds*1e3)
			return err
		}},
		{Rung: 2, Name: rungNames[2], Call: func() error { _, err := in.prep.Solve(b); return err }},
		{Rung: 3, Name: rungNames[3], Call: in.serveSolve},
	}
	return in, nil
}

func (in *inProcess) serveSolve() error {
	_, err := in.svc.Solve(context.Background(), in.id, in.b)
	return err
}

// report records R0-R3 and their self times after interleave, then runs the
// probes that need no daemon and no shared clock: allocations, refresh, batch
// and the simulator on the same system.
func (in *inProcess) report(res *result) error {
	c, m, b := in.c, in.sys.M, in.b
	r1, r2, r3 := in.lanes[0], in.lanes[1], in.lanes[2]
	exec := in.exec[laneWarmCalls:]
	for rep, e := range exec {
		// The program reports only a duration; the span is drawn from the
		// start of the R1 call that contained it.
		c.tr.spanParent(rungSpanName(0, rep), "ladder", 0, rep, r1.starts[rep], r1.starts[rep].Add(time.Duration(e*1e6)), rungSpanName(1, rep))
	}
	if !in.stats.Converged {
		res.fail("ladder: SolveInto did not converge (%d iterations, relRes %.3g)", in.stats.Iterations, in.stats.RelRes)
	}
	if r := relResidual(m, in.x, b, make([]float64, m.N)); !(r <= residualTol) {
		res.fail("ladder: SolveInto residual %.3g above %.0e", r, residualTol)
	}
	execMs := median(exec)
	res.layer("backend.exec_ms", execMs, len(exec))
	res.layer("core.solveinto_ms", r1.median(), len(r1.ms))
	res.layer("core.solveinto_self_ms", r1.median()-execMs, len(r1.ms))
	res.layer("core.solve_ms", r2.median(), len(r2.ms))
	res.layer("core.solve_self_ms", r2.median()-r1.median(), len(r2.ms))
	res.layer("serve.solve_ms", r3.median(), len(r3.ms))
	res.layer("serve.solve_self_ms", r3.median()-r2.median(), len(r3.ms))
	res.layer("solver.iterations", float64(in.stats.Iterations), 0)
	res.layer("solver.relres", in.stats.RelRes, 0)
	res.layer("solver.restarts", float64(in.stats.Restarts), 0)
	mulvecUs := probeSparse(res, in.sys)
	if in.stats.Iterations > 0 {
		iterUs := execMs * 1e3 / float64(in.stats.Iterations)
		res.layer("backend.iter_us", iterUs, len(exec))
		res.layer("backend.iter_over_mulvec", iterUs/mulvecUs, 0)
	}
	fl, by := iterModel(in.stats.Solver, m.N, m.NNZ())
	res.layer("backend.flops_per_iter_computed", fl, 0)
	res.layer("backend.bytes_per_iter_computed", by, 0)

	allocs, _, err := allocsDuring(5, func() error { _, err := in.prep.SolveInto(in.x, b); return err })
	if err != nil {
		return err
	}
	res.layer("core.solveinto_allocs_per_op", allocs, 5)
	allocs, bytesPer, err := allocsDuring(5, func() error { _, err := in.prep.Solve(b); return err })
	if err != nil {
		return err
	}
	res.layer("core.solve_allocs_per_op", allocs, 5)
	res.layer("core.solve_bytes_per_op", bytesPer, 5)
	if allocs, _, err = allocsDuring(5, in.serveSolve); err != nil {
		return err
	}
	res.layer("serve.solve_allocs_per_op", allocs, 5)

	ctx := context.Background()
	batch := make([][]float64, batchSize)
	for i := range batch {
		batch[i] = b
	}
	batchMs, err := timeMedian(3, func() error {
		items, err := in.svc.SolveBatch(ctx, in.id, batch)
		for _, it := range items {
			if err == nil {
				err = it.Err
			}
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("serve.SolveBatch: %w", err)
	}
	res.layer("serve.batch_over_single", batchMs/batchSize/r3.median(), 3)

	// Values-only refresh, alternating two value sets, on the pipeline and
	// through the service.
	alt := [2]*sparse.Matrix{perturbed(m, subSeed(c.seed, 20)), m}
	k := 0
	upd, err := timeMedian(6, func() error { k++; return in.prep.UpdateValues(alt[k%2]) })
	if err != nil {
		return fmt.Errorf("UpdateValues: %w", err)
	}
	res.layer("core.updatevalues_ms", upd, 6)
	k = 0
	updMs, err := timeMedian(6, func() error { k++; _, err := in.svc.UpdateSystem(ctx, in.id, alt[k%2]); return err })
	if err != nil {
		return fmt.Errorf("serve.UpdateSystem: %w", err)
	}
	res.layer("serve.update_ms", updMs, 6)

	// The simulator on the same system: cold prepare, and host time against
	// the native backend.
	var sim *core.Prepared
	simPrep, err := timeMedian(2, func() error {
		sim, err = core.Prepare(in.opts.Machine, m, in.cfg, in.opts.Strategy, core.WithBackend("sim"))
		return err
	})
	if err != nil {
		return fmt.Errorf("core.Prepare on sim: %w", err)
	}
	res.layer("core.prepare_sim_ms", simPrep, 2)
	st, err := sim.SolveInto(in.x, b)
	if err != nil {
		return fmt.Errorf("sim SolveInto: %w", err)
	}
	res.layer("backend.sim_over_native", st.ExecWallSeconds*1e3/execMs, 1)
	return nil
}

// ladder runs the whole ladder for one system: R1-R3 in-process, R4 against
// the daemon at httpURL, R5 through routerURL when given, and (without a
// router) the probes that model R4 from its parts, all interleaved.
func (c *runCtx) ladder(res *result, sys *system, b []float64, body []byte, lean bool, optsFile, httpURL, routerURL string) error {
	opts, err := c.serveOptions(optsFile)
	if err != nil {
		return err
	}
	in, err := c.ladderSetup(res, sys, b, opts)
	if err != nil {
		return err
	}
	defer in.close()

	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	post := func(url string) func() error {
		return func() error {
			t0 := time.Now()
			status, err := call(hc, "POST", url, body, &buf)
			return checkStatus(status, err, time.Since(t0), opDeadline)
		}
	}
	r4 := &lane{Rung: 4, Name: rungNames[4], Call: post(httpURL)}
	lanes := append(in.lanes, r4)
	if routerURL != "" {
		r5 := &lane{Rung: 5, Name: rungNames[5], Call: post(routerURL)}
		if err := c.interleave(append(lanes, r5)); err != nil {
			return err
		}
		res.layer("serve.http_ms", r4.median(), len(r4.ms))
		res.layer("cluster.http_ms", r5.median(), len(r5.ms))
		res.layer("cluster.hop_ms", r5.median()-r4.median(), len(r5.ms))
		return in.report(res)
	}

	// Probes that model R4 from its parts: json over the public request and
	// response types at the workload's sizes, and the same-size bodies through
	// a trivial echo handler. plain is R4 again without a span: R4 over it is
	// the tracing overhead.
	if err := post(httpURL)(); err != nil { // learn the answer's size
		return err
	}
	echoURL, stopEcho, err := startEcho(buf.Len())
	if err != nil {
		return err
	}
	defer stopEcho()
	answer := serve.SolveResponse{Converged: true, Iterations: 1, RelRes: 1e-7, Solver: "probe"}
	if !lean {
		answer.X = make([]float64, sys.M.N)
		copy(answer.X, b) // any vector of full-precision numbers encodes like x
	}
	dec := &lane{Rung: -1, Name: "serve.decode_ms", Call: func() error { var rq serve.SolveRequest; return json.Unmarshal(body, &rq) }}
	enc := &lane{Rung: -1, Name: "serve.encode_ms", Call: func() error { _, err := json.Marshal(answer); return err }}
	echo := &lane{Rung: -1, Name: "loadgen.http_echo_ms", Call: post(echoURL)}
	plain := &lane{Rung: -1, Name: "plain POST", Call: post(httpURL)}
	if err := c.interleave(append(lanes, dec, enc, echo, plain)); err != nil {
		return err
	}
	r3 := in.lanes[2]
	res.layer("serve.http_ms", r4.median(), len(r4.ms))
	res.layer("serve.http_self_ms", r4.median()-r3.median(), len(r4.ms))
	res.layer("serve.decode_ms", dec.median(), len(dec.ms))
	res.layer("serve.encode_ms", enc.median(), len(enc.ms))
	res.layer("loadgen.http_echo_ms", echo.median(), len(echo.ms))
	res.layer("ladder.model_over_measured", (r3.median()+dec.median()+enc.median()+echo.median())/r4.median(), 0)
	res.layer("ladder.top_over_e2e", r4.median()/plain.median(), len(plain.ms))
	return in.report(res)
}

// startEcho serves the HTTP stack alone: a handler that discards the request
// body and answers respLen bytes.
func startEcho(respLen int) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	answer := bytes.Repeat([]byte{'0'}, respLen)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sink bytes.Buffer
		_, _ = sink.ReadFrom(r.Body) // a short read shows as a failed call on the client
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(answer)
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close below
	}()
	return "http://" + ln.Addr().String() + "/echo", func() {
		_ = srv.Close()
		<-served
	}, nil
}

// probeSparse measures the host-side layers under Prepare on the system's
// matrix: generation, fingerprint, the plain CSR MulVec baseline, both
// partitioners and the halo build. It returns mulvec_us.
func probeSparse(res *result, sys *system) float64 {
	m := sys.M
	if sys.Gen != "" {
		if ms, err := timeMedian(3, func() error { _, err := sparse.GenByName(sys.Gen); return err }); err == nil {
			res.layer("sparse.gen_ms", ms, 3)
		}
	}
	fp, _ := timeMedian(5, func() error { _ = m.Fingerprint(); return nil })
	res.layer("sparse.fingerprint_ms", fp, 5)
	x, y := onesRHS(m), make([]float64, m.N)
	mv, _ := timeMedian(50, func() error { m.MulVec(x, y); return nil })
	res.layer("sparse.mulvec_us", mv*1e3, 50)
	// Values 8 B + column index 8 B (Go int) per off-diagonal, diagonal,
	// row pointers, x read and y written once: array sizes, not traffic.
	bytes := float64(16*len(m.Vals) + 8*m.N + 8*(m.N+1) + 16*m.N)
	res.layer("sparse.mulvec_gbs_computed", bytes/(mv*1e-3)/1e9, 50)

	const tiles = 64
	var cont *partition.Partition
	ct, _ := timeMedian(3, func() error { cont = partition.Contiguous(m, tiles); return nil })
	gt, _ := timeMedian(2, func() error { _ = partition.GreedyGraph(m, tiles); return nil })
	res.layer("partition.contiguous_ms", ct, 3)
	res.layer("partition.greedy_ms", gt, 2)
	res.layer("partition.edgecut", float64(cont.EdgeCut(m)), 0)
	res.layer("partition.imbalance", cont.Imbalance(m), 0)
	var lay *halo.Layout
	ht, err := timeMedian(3, func() error { l, err := halo.Build(m, cont); lay = l; return err })
	if err != nil {
		res.fail("halo.Build: %v", err)
		return mv * 1e3
	}
	hs := lay.ComputeStats()
	res.layer("halo.build_ms", ht, 3)
	res.layer("halo.halo_cells", float64(hs.HaloCells), 0)
	res.layer("halo.instructions", float64(hs.Instructions), 0)
	return mv * 1e3
}

// clusterLadder runs the ladder on cluster-mixed's second static system: R4
// against a shard that holds it and R5 through the router.
func (c *runCtx) clusterLadder(res *result, plan *mixPlan, bed *clusterBed) error {
	sys := plan.Systems[1]
	b := gaussianRHS(subSeed(c.seed, 101), sys.M.N, 1)[0]
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	var holder *proc
	for _, p := range bed.shards {
		var info sysAnswer
		if err := getJSON(hc, p.url()+"/v1/systems/"+sys.ID, &info); err == nil && info.ID == sys.ID {
			holder = p
			break
		}
	}
	if holder == nil {
		return fmt.Errorf("no shard holds %s", sys.Gen)
	}
	path := "/v1/systems/" + sys.ID + "/solve"
	return c.ladder(res, sys, b, solveBody(b), false, "shard.json", holder.url()+path, bed.router.url()+path)
}
