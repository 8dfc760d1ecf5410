package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// simEntry is one (matrix, hierarchy, partitioner) of the sim-cold suite.
type simEntry struct {
	Gen      string
	CfgFile  string
	Strategy core.PartitionStrategy
}

// simSuite is fixed: one pass is a cold Prepare+Solve of each entry on the
// cycle-accurate backend, the path the CLI and the examples use.
var simSuite = []simEntry{
	{"poisson3d:24", "sim-mpir-dw-ilu.json", core.PartitionContiguous},
	{"poisson3d:24", "sim-cg-chebyshev.json", core.PartitionContiguous},
	{"stencil27:16", "sim-bicgstab-ilu-coarse.json", core.PartitionGreedy},
}

const simTiles = 64

// simMaxErr bounds max|x_i − 1| of a suite answer: b is A·1, so the exact
// solution is all ones, and every entry converges well inside this.
const simMaxErr = 1e-3

// simCase is a suite entry with its inputs built.
type simCase struct {
	simEntry
	cfg config.Config
	m   *sparse.Matrix
	b   []float64
}

// simFacts are the simulated statistics of one entry; they must repeat
// exactly from pass to pass and from run to run.
type simFacts struct {
	Iterations int
	Machine    ipu.Stats
}

func simMachine() ipu.Config {
	mc := ipu.Mk2M2000()
	mc.Chips, mc.TilesPerChip = 1, simTiles
	return mc
}

func (c *runCtx) loadConfig(file string) (config.Config, error) {
	f, err := os.Open(c.config(file))
	if err != nil {
		return config.Config{}, err
	}
	defer f.Close()
	cfg, err := config.Parse(f)
	if err != nil {
		return config.Config{}, fmt.Errorf("%s: %w", file, err)
	}
	return cfg, nil
}

// simInputs generates the suite's matrices and right-hand sides: sim-cold's
// set-up.
func (c *runCtx) simInputs() ([]simCase, error) {
	cases := make([]simCase, len(simSuite))
	for i, e := range simSuite {
		cfg, err := c.loadConfig(e.CfgFile)
		if err != nil {
			return nil, err
		}
		m, err := sparse.GenByName(e.Gen)
		if err != nil {
			return nil, err
		}
		cases[i] = simCase{simEntry: e, cfg: cfg, m: m, b: onesRHS(m)}
	}
	return cases, nil
}

// simPass runs the suite once, cold, and returns each entry's result.
func simPass(cases []simCase, opts ...core.Option) ([]*core.Result, error) {
	out := make([]*core.Result, len(cases))
	opts = append([]core.Option{core.WithBackend("sim")}, opts...)
	for i, cs := range cases {
		r, err := core.Solve(simMachine(), cs.m, cs.b, cs.cfg, cs.Strategy, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s x %s: %w", cs.Gen, cs.CfgFile, err)
		}
		out[i] = r
	}
	return out, nil
}

// checkSimPass verifies one pass: every answer is all ones within simMaxErr
// and every simulated statistic equals the first pass's.
func checkSimPass(cases []simCase, rs []*core.Result, first []simFacts) error {
	for i, r := range rs {
		if !r.Stats.Converged {
			return fmt.Errorf("%s x %s: converged:false", cases[i].Gen, cases[i].CfgFile)
		}
		worst := 0.0
		for _, v := range r.X {
			if d := math.Abs(v - 1); d > worst || math.IsNaN(d) {
				worst = d
			}
		}
		if !(worst <= simMaxErr) {
			return fmt.Errorf("%s x %s: max|x-1| = %.3g above %.0e", cases[i].Gen, cases[i].CfgFile, worst, simMaxErr)
		}
		if first != nil {
			if got := (simFacts{r.Stats.Iterations, r.Machine}); got != first[i] {
				return fmt.Errorf("%s x %s: simulated statistics changed between passes: %+v then %+v",
					cases[i].Gen, cases[i].CfgFile, first[i], got)
			}
		}
	}
	return nil
}

// runSimCold is one run of sim-cold: closed loop, one caller, in-process.
func (c *runCtx) runSimCold() (*result, error) {
	res := newResult(wSimCold)

	// Set-up is input generation; it is cheap, so many cycles steady its median.
	var cases []simCase
	var times []float64
	for i := 0; i < 5*c.setupCycles; i++ {
		t0 := time.Now()
		cs, err := c.simInputs()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		cases = cs
	}
	res.e2e("setup_s", median(times), len(times))

	// One unmeasured pass warms the process and fixes the expected statistics.
	rs, err := simPass(cases)
	if err != nil {
		return nil, err
	}
	if err := checkSimPass(cases, rs, nil); err != nil {
		res.fail("warm-up pass: %v", err)
	}
	first := make([]simFacts, len(rs))
	var cycles, supersteps, compute, exchange, syncc, xbytes uint64
	for i, r := range rs {
		first[i] = simFacts{r.Stats.Iterations, r.Machine}
		cycles += r.Machine.TotalCycles
		supersteps += r.Machine.Supersteps
		compute += r.Machine.ComputeCycles
		exchange += r.Machine.ExchangeCycles
		syncc += r.Machine.SyncCycles
		xbytes += r.Machine.ExchangeBytes
	}

	var passMs, execMs []float64
	failed := 0
	cpu0 := selfCPUSeconds()
	start := time.Now()
	for time.Since(start) < c.window {
		t0 := time.Now()
		rs, err := simPass(cases)
		t1 := time.Now()
		if err == nil {
			err = checkSimPass(cases, rs, first)
		}
		c.tr.span("loadgen.pass", "sim", 0, len(passMs)+failed, t0, t1)
		if err != nil {
			failed++
			res.fail("pass %d: %v", len(passMs)+failed, err)
			continue
		}
		passMs = append(passMs, float64(t1.Sub(t0))/1e6)
		var ex float64
		for _, r := range rs {
			ex += r.ExecWallSeconds
		}
		execMs = append(execMs, ex*1e3)
	}
	elapsed := time.Since(start).Seconds()
	cpu := selfCPUSeconds() - cpu0
	ok := len(passMs)
	res.Attempted, res.Failed = ok+failed, failed
	if ok == 0 {
		res.fail("no pass succeeded in the window")
		return res, nil
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.e2e("throughput_ops_s", float64(ok)/elapsed, ok)
	res.e2ePctl("latency_p50_ms", percentile(passMs, 0.5))
	res.e2ePctl("latency_p90_ms", percentile(passMs, 0.9))
	res.e2e("time_to_solution_s", median(passMs)/1e3, ok)
	res.e2e("cpu_s_per_op", cpu/float64(ok), ok)
	res.e2e("peak_rss_mb", rss, 0)
	res.e2e("fail_frac", float64(failed)/float64(ok+failed), ok+failed)
	res.e2e("sim_cycles_total", float64(cycles), 0)

	res.layer("loadgen.sent", float64(ok+failed), 0)
	res.layer("loadgen.ok", float64(ok), 0)
	res.layer("loadgen.failed", float64(failed), 0)
	// In-process, the "generator" is the system under test; its share is by
	// construction the whole load.
	res.layer("loadgen.cpu_frac", cpu/(elapsed*float64(c.nproc)), 0)
	res.layer("ipu.supersteps", float64(supersteps), 0)
	res.layer("ipu.compute_cycles", float64(compute), 0)
	res.layer("ipu.exchange_cycles", float64(exchange), 0)
	res.layer("ipu.sync_cycles", float64(syncc), 0)
	res.layer("ipu.exchange_bytes", float64(xbytes), 0)
	res.layer("graph.exec_ms", median(execMs), len(execMs))
	res.layer("graph.host_s_per_mcycle", median(execMs)/1e3/(float64(cycles)/1e6), len(execMs))
	res.layer("solver.iterations", float64(first[0].Iterations), 0)
	res.layer("solver.relres", rs[0].Stats.RelRes, 0)
	res.layer("solver.restarts", float64(rs[0].Stats.Restarts), 0)

	if c.trace {
		if err := c.simLayers(res, cases); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// simLayers are the probes of the traced sim-cold run: the host layers under
// Prepare, the engine's host parallelism and the distance to the native
// backend, all on the suite's first entry.
func (c *runCtx) simLayers(res *result, cases []simCase) error {
	cs := cases[0]
	probeSparse(res, &system{Gen: cs.Gen, M: cs.m})

	execOf := func(opts ...core.Option) (float64, error) {
		var ms []float64
		for i := 0; i < 3; i++ {
			rs, err := simPass(cases, opts...)
			if err != nil {
				return 0, err
			}
			var ex float64
			for _, r := range rs {
				ex += r.ExecWallSeconds
			}
			ms = append(ms, ex*1e3)
		}
		return median(ms), nil
	}
	serial, err := execOf(core.WithParallelism(1))
	if err != nil {
		return err
	}
	auto, err := execOf(core.WithParallelism(0))
	if err != nil {
		return err
	}
	res.layer("hostpool.speedup", serial/auto, 3)

	var sim *core.Prepared
	simPrep, err := timeMedian(3, func() error {
		p, err := core.Prepare(simMachine(), cs.m, cs.cfg, cs.Strategy, core.WithBackend("sim"))
		sim = p
		return err
	})
	if err != nil {
		return err
	}
	res.layer("core.prepare_sim_ms", simPrep, 3)
	native, err := core.Prepare(simMachine(), cs.m, cs.cfg, cs.Strategy, core.WithBackend("native"))
	if err != nil {
		return err
	}
	x := make([]float64, cs.m.N)
	var simExec, natExec []float64
	for i := 0; i < 3; i++ {
		s1, err := sim.SolveInto(x, cs.b)
		if err != nil {
			return err
		}
		s2, err := native.SolveInto(x, cs.b)
		if err != nil {
			return err
		}
		simExec, natExec = append(simExec, s1.ExecWallSeconds), append(natExec, s2.ExecWallSeconds)
	}
	res.layer("backend.sim_over_native", median(simExec)/median(natExec), 3)
	return nil
}
