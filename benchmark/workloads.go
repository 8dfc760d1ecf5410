package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runCtx is the shape of one run: where things are, the seed and how long
// each phase lasts.
type runCtx struct {
	root string // repository root
	bin  string // built daemons
	work string // scratch for ports, logs and state dirs, under .bench_build

	seed        int64
	window      time.Duration // measured window
	warmup      time.Duration
	nproc       int // client goroutines and connections of the closed loops
	setupCycles int
	buildS      float64

	// closedClients > 0 replaces cluster-mixed's due times with back-to-back
	// dispatch from that many clients: the one-off capacity measurement
	// behind the frozen rate (-capacity).
	closedClients int

	trace      bool          // the traced run: client spans, ladder, layer probes
	tr         *tracer       // nil when trace is off
	ladderReps int           // repetitions per ladder rung
	rungBudget time.Duration // wall-clock cap per rung
}

// Window lengths follow the issue's load shape (3 s warm-up per 20 s window)
// scaled to the window the contract allows.
func warmupFor(window time.Duration) time.Duration { return window * 3 / 20 }

func (c *runCtx) config(name string) string {
	return filepath.Join(c.root, "benchmark", "configs", name)
}

func (c *runCtx) rawConfig(name string) (json.RawMessage, error) {
	b, err := os.ReadFile(c.config(name))
	if err != nil {
		return nil, err
	}
	if !json.Valid(b) {
		return nil, fmt.Errorf("%s is not valid JSON", name)
	}
	return json.RawMessage(bytes.TrimSpace(b)), nil
}

// The daemons' flags beyond -addr and -port-file: config files that live under
// benchmark/configs (own copies, so an edit to configs/ cannot silently change
// the benchmark), default GOMAXPROCS, tuner off, chaos off. Nothing here
// carries the seed or a workload name.
func (c *runCtx) servedArgs() []string { return []string{"-config", c.config("serve.json")} }

func (c *runCtx) shardArgs(stateDir string) []string {
	return []string{"-config", c.config("shard.json"), "-state-dir", stateDir}
}

func (c *runCtx) routerArgs(shardURLs []string) []string {
	return []string{"-config", c.config("router.json"), "-shards", strings.Join(shardURLs, ","), "-replicas", "2"}
}

// serveSpec is the system and request of one closed-loop serve workload.
type serveSpec struct {
	Gen     string
	CfgFile string  // per-system config under benchmark/configs, "" = service default
	Lean    bool    // {"rhs":"ones","omitX":true}: ~30 bytes each way
	Tol     float64 // the solver's own tolerance, for the lean relRes check
	NumRHS  int     // distinct explicit right-hand sides (wire)
}

var serveSpecs = map[string]serveSpec{
	wServeCG:   {Gen: "poisson3d:32", CfgFile: "cg-jacobi.json", Lean: true, Tol: 1e-6},
	wServeMPIR: {Gen: "poisson3d:24", Lean: true, Tol: 1e-9},
	// poisson3d:14, not the issue's :16: on the reference box execution was
	// 67-70% of the single-client request at :16 and 62-65% at :14, and the
	// design intent is at most 65%.
	wServeWire: {Gen: "poisson3d:14", CfgFile: "cg-jacobi.json", Tol: 1e-6, NumRHS: 16},
}

// serveInputs is everything a serve workload sends, built before any timer.
type serveInputs struct {
	spec serveSpec
	sys  *system
	rhs  [][]float64 // ones for lean workloads, Gaussian for wire
	body [][]byte    // one pre-encoded solve body per rhs
}

func (c *runCtx) serveInputs(w string) (*serveInputs, error) {
	spec := serveSpecs[w]
	var cfg json.RawMessage
	if spec.CfgFile != "" {
		var err error
		if cfg, err = c.rawConfig(spec.CfgFile); err != nil {
			return nil, err
		}
	}
	sys, err := genSystem(spec.Gen, cfg)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{spec: spec, sys: sys}
	if spec.Lean {
		in.rhs = [][]float64{onesRHS(sys.M)}
		in.body = [][]byte{[]byte(`{"rhs":"ones","omitX":true}`)}
		return in, nil
	}
	in.rhs = gaussianRHS(subSeed(c.seed, 10), sys.M.N, spec.NumRHS)
	for _, b := range in.rhs {
		in.body = append(in.body, solveBody(b))
	}
	return in, nil
}

// serveBed is a started ipuserved holding the workload's system, which has
// returned one verified answer.
type serveBed struct {
	p      *proc
	expect leanExpect
}

func (in *serveInputs) solvePath() string { return "/v1/systems/" + in.sys.ID + "/solve" }

// registerAndVerify registers s at base and fetches one full answer for b,
// verifying it; it returns that answer (its iteration count is the lean
// workloads' expectation).
func registerAndVerify(hc *http.Client, base string, s *system, body []byte, b []float64) (*solveAnswer, error) {
	var buf bytes.Buffer
	status, err := call(hc, "POST", base+"/v1/systems", s.registerBody(), &buf)
	if err := checkStatus(status, err, 0, opDeadline); err != nil {
		return nil, fmt.Errorf("register %s: %w: %s", s.Gen, err, buf.String())
	}
	a, err := decodeSys(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := checkSys(a, s, 1); err != nil {
		return nil, fmt.Errorf("register %s: %w", s.Gen, err)
	}
	status, err = call(hc, "POST", base+"/v1/systems/"+s.ID+"/solve", body, &buf)
	if err := checkStatus(status, err, 0, opDeadline); err != nil {
		return nil, fmt.Errorf("first solve on %s: %w: %s", s.Gen, err, buf.String())
	}
	ans, err := decodeSolve(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := checkFull(s.M, b, ans, make([]float64, s.M.N)); err != nil {
		return nil, fmt.Errorf("first solve on %s: %w", s.Gen, err)
	}
	return ans, nil
}

// bringUp is one cold cycle of a serve workload: fresh process, register, one
// verified answer. dir must be new for every cycle.
func (c *runCtx) bringUp(in *serveInputs, hc *http.Client, dir string) (*serveBed, error) {
	p, err := startDaemon("ipuserved", filepath.Join(c.bin, "ipuserved"), dir, anyPort, c.servedArgs()...)
	if err != nil {
		return nil, err
	}
	first := in.body[0]
	if in.spec.Lean {
		first = []byte(`{"rhs":"ones"}`) // full x once, so the lean answers are anchored to a verified one
	}
	ans, err := registerAndVerify(hc, p.url(), in.sys, first, in.rhs[0])
	if err != nil {
		p.stop()
		return nil, err
	}
	return &serveBed{p: p, expect: leanExpect{Iterations: ans.Iterations, Tolerance: in.spec.Tol}}, nil
}

// requests builds the closed-loop request list with each answer's check.
func (in *serveInputs) requests(expect leanExpect) []closedReq {
	reqs := make([]closedReq, len(in.body))
	for k := range in.body {
		b := in.rhs[k]
		rq := closedReq{Path: in.solvePath(), Body: in.body[k]}
		if in.spec.Lean {
			rq.Check = func(answer []byte, _ []float64) error {
				a, err := decodeSolve(answer)
				if err != nil {
					return err
				}
				return checkLean(a, expect)
			}
		} else {
			rq.Check = func(answer []byte, scratch []float64) error {
				a, err := decodeSolve(answer)
				if err != nil {
					return err
				}
				return checkFull(in.sys.M, b, a, scratch)
			}
		}
		reqs[k] = rq
	}
	return reqs
}

// setupCycles runs bring n times in fresh directories, keeps the last bed and
// stops the others, and returns the per-cycle times.
func setupCycles[T any](c *runCtx, n int, bring func(dir string) (T, error), stop func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		bed, err := bring(filepath.Join(c.work, fmt.Sprintf("cycle-%d", i)))
		if err != nil {
			return last, nil, fmt.Errorf("setup cycle %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			stop(bed)
		} else {
			last = bed
		}
	}
	return last, times, nil
}

// window is what one measured phase produced besides the recorder.
type window struct {
	rec       *recorder
	elapsed   float64 // s, phase start to last completion
	daemonCPU float64 // CPU-s the daemons burned in the phase
	selfCPU   float64 // CPU-s the generator burned
	rssMB     float64 // summed VmHWM at the end
}

// summarize turns a window into the end-to-end and loadgen metrics shared by
// the HTTP workloads. Latency percentiles are over single solves only.
func (c *runCtx) summarize(res *result, win *window) {
	rec := win.rec
	attempted, failed := rec.totals()
	ok := attempted - failed
	res.Attempted += attempted
	res.Failed += failed
	for _, why := range rec.reasons {
		res.fail("%s", why)
	}
	if ok == 0 {
		res.fail("no op succeeded in the window")
		return
	}
	lat := rec.lat[opSolve]
	res.e2e("throughput_ops_s", float64(ok)/win.elapsed, ok)
	res.e2ePctl("latency_p50_ms", percentile(lat, 0.50))
	res.e2ePctl("latency_p90_ms", percentile(lat, 0.90))
	res.e2e("cpu_s_per_op", win.daemonCPU/float64(ok), ok)
	res.e2e("peak_rss_mb", win.rssMB, 0)
	res.e2e("fail_frac", float64(failed)/float64(attempted), attempted)

	res.layer("loadgen.sent", float64(attempted), 0)
	res.layer("loadgen.ok", float64(ok), 0)
	res.layer("loadgen.failed", float64(failed), 0)
	res.layerPctl("loadgen.latency_p99_ms", percentile(lat, 0.99))
	res.layer("loadgen.latency_max_ms", maxOf(lat), len(lat))
	cpuFrac := win.selfCPU / (win.elapsed * float64(c.nproc))
	res.layer("loadgen.cpu_frac", cpuFrac, 0)
	if cpuFrac > 0.25 {
		res.warn("loadgen.cpu_frac %.2f > 0.25: the generator itself is a large share of the box", cpuFrac)
	}
	res.layer("loadgen.build_s", c.buildS, 0)
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// serveStats is the part of a shard's /v1/stats the benchmark reports.
type serveStats struct {
	CacheHits    float64 `json:"cacheHits"`
	CacheMisses  float64 `json:"cacheMisses"`
	Evictions    float64 `json:"evictions"`
	Retries      float64 `json:"retries"`
	Rejected     float64 `json:"rejected"`
	VerifyFailed float64 `json:"verifyFailed"`
	Refreshed    float64 `json:"refreshed"`
	Solved       float64 `json:"solved"`
}

func getJSON(hc *http.Client, url string, v any) error {
	var buf bytes.Buffer
	status, err := call(hc, "GET", url, nil, &buf)
	if err := checkStatus(status, err, 0, opDeadline); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// scrapeServe sums /v1/stats over the shards and records the serve counters
// and the cost of one /metrics scrape on the first (warm) shard.
func scrapeServe(res *result, hc *http.Client, shards []*proc) ([]serveStats, error) {
	var sum serveStats
	per := make([]serveStats, len(shards))
	for i, p := range shards {
		if err := getJSON(hc, p.url()+"/v1/stats", &per[i]); err != nil {
			return nil, err
		}
		sum.CacheHits += per[i].CacheHits
		sum.CacheMisses += per[i].CacheMisses
		sum.Evictions += per[i].Evictions
		sum.Retries += per[i].Retries
		sum.Rejected += per[i].Rejected
		sum.VerifyFailed += per[i].VerifyFailed
		sum.Refreshed += per[i].Refreshed
	}
	res.layer("serve.cache_hits", sum.CacheHits, 0)
	res.layer("serve.cache_misses", sum.CacheMisses, 0)
	res.layer("serve.evictions", sum.Evictions, 0)
	res.layer("serve.retries", sum.Retries, 0)
	res.layer("serve.rejected", sum.Rejected, 0)
	res.layer("serve.verify_failed", sum.VerifyFailed, 0)
	if res.Workload == wCluster {
		res.layer("serve.refreshed", sum.Refreshed, 0)
	}

	var buf bytes.Buffer
	var ms []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		status, err := call(hc, "GET", shards[0].url()+"/metrics", nil, &buf)
		if err := checkStatus(status, err, 0, opDeadline); err != nil {
			return nil, fmt.Errorf("GET /metrics: %w", err)
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	res.layer("telemetry.scrape_ms", median(ms), len(ms))
	res.layer("telemetry.scrape_bytes", float64(buf.Len()), 0)
	return per, nil
}

// measure runs fn (a load phase) and accounts CPU and memory around it.
func measure(procs []*proc, rec *recorder, fn func() time.Time) (*window, error) {
	cpu0, err := sumCPU(procs)
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	start := fn()
	cpu1, err := sumCPU(procs)
	if err != nil {
		return nil, err
	}
	rss, err := sumRSS(procs)
	if err != nil {
		return nil, err
	}
	end := rec.lastDone
	if end.Before(start) {
		end = time.Now()
	}
	return &window{rec: rec, elapsed: end.Sub(start).Seconds(), daemonCPU: cpu1 - cpu0, selfCPU: selfCPUSeconds() - self0, rssMB: rss}, nil
}

// runServe is one run of a closed-loop serve workload.
func (c *runCtx) runServe(w string) (*result, error) {
	res := newResult(w)
	in, err := c.serveInputs(w)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(c.nproc)
	defer hc.CloseIdleConnections()

	bed, times, err := setupCycles(c, c.setupCycles,
		func(dir string) (*serveBed, error) { return c.bringUp(in, hc, dir) },
		func(b *serveBed) { b.p.stop() })
	if err != nil {
		return nil, err
	}
	defer bed.p.stop()
	res.e2e("setup_s", median(times), len(times))

	reqs := in.requests(bed.expect)
	procs := []*proc{bed.p}
	warm := newRecorder()
	runClosed(hc, bed.p.url(), reqs, c.nproc, in.sys.M.N, c.warmup, warm, nil)
	if _, failed := warm.totals(); failed > 0 {
		res.fail("warm-up: %d ops failed, first: %v", failed, warm.reasons)
	}

	rec := newRecorder()
	win, err := measure(procs, rec, func() time.Time {
		return runClosed(hc, bed.p.url(), reqs, c.nproc, in.sys.M.N, c.window, rec, c.tr)
	})
	if err != nil {
		return nil, err
	}
	c.summarize(res, win)
	if _, err := scrapeServe(res, hc, procs); err != nil {
		return nil, err
	}
	if c.trace {
		if err := c.ladder(res, in.sys, in.rhs[0], in.body[0], in.spec.Lean, "serve.json", bed.p.url()+in.solvePath(), ""); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---- cluster-mixed -------------------------------------------------------

// clusterBed is a started router with three shards holding the roster.
type clusterBed struct {
	shards []*proc
	router *proc
}

func (b *clusterBed) all() []*proc { return append(append([]*proc(nil), b.shards...), b.router) }

func (b *clusterBed) stop() {
	for _, p := range b.all() {
		if p != nil {
			p.stop()
		}
	}
}

const numShards = 3

// shardPortBases are where the three shards listen (base, base+1, base+2).
// The router places systems by hashing shard URLs, so a port the kernel picks
// would give every run its own placement, shard skew and eviction pattern;
// fixed ports make the placement part of the workload. A later base is tried
// only when an earlier one is taken.
var shardPortBases = []int{23870, 33870, 43870}

// startShards starts the three shards on the first free port base.
func (c *runCtx) startShards(dir string) ([]*proc, error) {
	var lastErr error
	for _, base := range shardPortBases {
		var shards []*proc
		for i := 0; i < numShards && lastErr == nil; i++ {
			name := fmt.Sprintf("shard-%d", i)
			// A retry on another base must not find this base's WAL.
			state := filepath.Join(dir, fmt.Sprintf("%s-state-%d", name, base))
			p, err := startDaemon(name, filepath.Join(c.bin, "ipuserved"), dir, fmt.Sprintf("127.0.0.1:%d", base+i), c.shardArgs(state)...)
			if err != nil {
				lastErr = err
				break
			}
			shards = append(shards, p)
		}
		if lastErr == nil {
			return shards, nil
		}
		for _, p := range shards {
			p.stop()
		}
		if base != shardPortBases[len(shardPortBases)-1] {
			lastErr = nil
		}
	}
	return nil, lastErr
}

// bringUpCluster is one cold cycle of cluster-mixed: three shards with fresh
// state dirs, the router, every roster system registered through the router
// and one verified answer from each.
func (c *runCtx) bringUpCluster(plan *mixPlan, firstBody [][]byte, firstRHS [][]float64, hc *http.Client, dir string) (*clusterBed, error) {
	shards, err := c.startShards(dir)
	if err != nil {
		return nil, err
	}
	bed := &clusterBed{shards: shards}
	urls := make([]string, len(shards))
	for i, p := range shards {
		urls[i] = p.url()
	}
	r, err := startDaemon("ipurouterd", filepath.Join(c.bin, "ipurouterd"), dir, anyPort, c.routerArgs(urls)...)
	if err != nil {
		bed.stop()
		return nil, err
	}
	bed.router = r
	for i, s := range plan.Systems {
		if _, err := registerAndVerify(hc, r.url(), s, firstBody[i], firstRHS[i]); err != nil {
			bed.stop()
			return nil, err
		}
	}
	return bed, nil
}

// routerStats is the part of the router's /v1/stats the benchmark reports.
type routerStats struct {
	Routed          float64 `json:"routed"`
	Failovers       float64 `json:"failovers"`
	Retries         float64 `json:"retries"`
	Reregistrations float64 `json:"reregistrations"`
}

// mixPlanFor generates cluster-mixed's schedule for a window and its warm-up
// at the frozen rate.
func (c *runCtx) mixPlanFor(window, warmup time.Duration) (*mixPlan, error) {
	cg, err := c.rawConfig("cg-jacobi.json")
	if err != nil {
		return nil, err
	}
	warmOps := int(warmup.Seconds() * clusterRate)
	winOps := int(window.Seconds() * clusterRate)
	return buildMixPlan(c.seed, clusterRate, warmOps, winOps, cg)
}

// runCluster is one run of cluster-mixed.
func (c *runCtx) runCluster() (*result, error) {
	res := newResult(wCluster)
	plan, err := c.mixPlanFor(c.window, c.warmup)
	if err != nil {
		return nil, err
	}
	// The first verified answer of each system uses its first pool vector.
	firstBody := make([][]byte, len(plan.Systems))
	firstRHS := make([][]float64, len(plan.Systems))
	for i, s := range plan.Systems {
		b := gaussianRHS(subSeed(c.seed, 100+int64(i)), s.M.N, 1)[0]
		firstBody[i], firstRHS[i] = solveBody(b), b
	}
	hc := newHTTPClient(c.nproc)
	defer hc.CloseIdleConnections()

	bed, times, err := setupCycles(c, c.setupCycles,
		func(dir string) (*clusterBed, error) { return c.bringUpCluster(plan, firstBody, firstRHS, hc, dir) },
		func(b *clusterBed) { b.stop() })
	if err != nil {
		return nil, err
	}
	defer bed.stop()
	res.e2e("setup_s", median(times), len(times))

	st := newMixState(plan)
	rec, warm := newRecorder(), newRecorder()
	// One continuous schedule: ops due before zero are the warm-up. CPU and
	// the window's clock start at zero, sampled by a timer beside the loop.
	procs := bed.all()
	zero := time.Now().Add(c.warmup)
	if c.closedClients > 0 {
		zero = time.Now()
	}
	var cpu0, self0 float64
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		time.Sleep(time.Until(zero))
		cpu0, cpuErr = sumCPU(procs)
		self0 = selfCPUSeconds()
	}()
	runOpen(hc, bed.router.url(), st, zero, c.closedClients, rec, warm, c.tr)
	<-sampled
	if cpuErr != nil {
		return nil, cpuErr
	}
	cpu1, err := sumCPU(procs)
	if err != nil {
		return nil, err
	}
	rss, err := sumRSS(procs)
	if err != nil {
		return nil, err
	}
	win := &window{rec: rec, elapsed: rec.lastDone.Sub(zero).Seconds(), daemonCPU: cpu1 - cpu0, selfCPU: selfCPUSeconds() - self0, rssMB: rss}
	if attempted, failed := warm.totals(); failed > 0 {
		res.fail("warm-up: %d of %d ops failed, first: %v", failed, attempted, warm.reasons)
	}
	c.summarize(res, win)
	res.e2ePctl("batch_p50_ms", percentile(rec.lat[opBatch], 0.5))
	res.e2ePctl("patch_p50_ms", percentile(rec.lat[opPatch], 0.5))
	res.e2ePctl("register_p50_ms", percentile(rec.lat[opRegister], 0.5))
	lateFrac, lateP99 := lateness(rec.delays)
	res.layer("loadgen.late_frac", lateFrac, len(rec.delays))
	res.layer("loadgen.late_p99_ms", lateP99, len(rec.delays))
	if lateFrac > 0 {
		res.warn("loadgen.late_frac %.3f > 0: the generator dispatched ops late (worst %.1f ms on %s); open-loop latency includes its own stall",
			lateFrac, rec.worstDelay, rec.worstDelayOp)
	}

	per, err := scrapeServe(res, hc, bed.shards)
	if err != nil {
		return nil, err
	}
	var rs routerStats
	if err := getJSON(hc, bed.router.url()+"/v1/stats", &rs); err != nil {
		return nil, err
	}
	res.layer("cluster.routed", rs.Routed, 0)
	res.layer("cluster.failovers", rs.Failovers, 0)
	res.layer("cluster.retries", rs.Retries, 0)
	res.layer("cluster.reregistrations", rs.Reregistrations, 0)
	var maxSolved, sumSolved float64
	for _, s := range per {
		sumSolved += s.Solved
		if s.Solved > maxSolved {
			maxSolved = s.Solved
		}
	}
	if sumSolved > 0 {
		res.layer("cluster.shard_skew", maxSolved/(sumSolved/float64(len(per))), 0)
	}

	if c.trace {
		if err := c.clusterLadder(res, plan, bed); err != nil {
			return nil, err
		}
	}
	return res, nil
}
