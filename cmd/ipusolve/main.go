// Command ipusolve solves a sparse linear system on the simulated IPU.
//
// The matrix comes from a Matrix Market file (-matrix) or a generator spec
// (-gen, e.g. poisson3d:32 or stencil27:16), the right-hand side is either
// A*ones (default, so the exact solution is known) or random (-rhs random),
// and the solver hierarchy is configured through a JSON file (-config) in the
// format of paper §V; without one the paper's reference configuration
// MPIR(double-word) + PBiCGStab + ILU(0) is used.
//
// -tune races candidate configurations (the flags' own choice first, then
// partition strategy and preconditioner on the native backend) within
// -tune-budget and solves with the winner.
//
// Example:
//
//	ipusolve -gen poisson3d:24 -tiles 64 -tol 1e-9 -v
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
	"ipusparse/internal/telemetry"
	"ipusparse/internal/tune"
)

// writeMetrics exports the run's telemetry in Prometheus text format to the
// given path ("-" writes to stdout).
func writeMetrics(reg *telemetry.Registry, path string) error {
	if path == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	matrixPath := flag.String("matrix", "", "Matrix Market file to solve")
	gen := flag.String("gen", "poisson3d:16", "generator spec when no -matrix is given")
	cfgPath := flag.String("config", "", "JSON solver configuration file")
	rhs := flag.String("rhs", "ones", "right-hand side: ones (b = A*1) or random")
	tiles := flag.Int("tiles", 64, "simulated tiles")
	chips := flag.Int("chips", 1, "simulated chips")
	tol := flag.Float64("tol", 0, "override the configured tolerance")
	strategy := flag.String("partition", "contiguous", "partition strategy: contiguous or greedy")
	verbose := flag.Bool("v", false, "print the cycle profile")
	traceOut := flag.String("trace-out", "", "write the combined execution timeline (Chrome trace-event JSON) to this file")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-text metrics of the run to this file (\"-\" for stdout)")
	faultRate := flag.Float64("fault-rate", 0, "per-consultation fault-injection probability (0 disables the campaign)")
	faultSeed := flag.Int64("fault-seed", 42, "seed of the fault-injection campaign")
	abft := flag.Bool("abft", false, "arm algorithm-based fault tolerance: checksum-carrying SpMV, divergence guards and a final residual verification")
	fingerprint := flag.Bool("fingerprint", false, "print the matrix fingerprint (the service cache key) and exit")
	enginePar := flag.Int("engine-par", -1, "host shards per BSP superstep (-1: from config, 0: all cores, 1: serial; never changes results)")
	backendName := flag.String("backend", "", "execution backend: sim (default; cycle-accurate) or native (host-speed, no cycle model)")
	tuneOn := flag.Bool("tune", false, "race candidate configurations first (the flags' choice, then native strategy and preconditioner variants) and solve with the winner")
	tuneBudget := flag.Duration("tune-budget", 2*time.Second, "tuning race budget with -tune")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *fingerprint {
		if err := printFingerprint(*matrixPath, *gen); err != nil {
			fmt.Fprintln(os.Stderr, "ipusolve:", err)
			os.Exit(1)
		}
		return
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipusolve:", err)
		os.Exit(1)
	}
	err = run(*matrixPath, *gen, *cfgPath, *rhs, *tiles, *chips, *tol, *strategy, *verbose, *traceOut, *metricsOut, *faultRate, *faultSeed, *abft, *enginePar, *backendName, *tuneOn, *tuneBudget)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipusolve:", err)
		os.Exit(1)
	}
}

// startProfiles starts the optional CPU profile and returns a function that
// stops it and writes the optional heap profile.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// printFingerprint loads the matrix and prints its deterministic fingerprints
// — the full digest ipuserved caches the prepared pipeline under, and the
// values-free pattern digest the values-only refresh path
// (PATCH /v1/systems/{id}) matches on.
func printFingerprint(matrixPath, gen string) error {
	m, err := loadMatrix(matrixPath, gen)
	if err != nil {
		return err
	}
	fmt.Printf("%s pattern %s\n", m.FingerprintString(), m.PatternFingerprintString())
	return nil
}

// raceCandidates runs the one-shot autotune pass: the race measures the
// candidates within the budget. The positional -partition and -backend
// choices form the default candidate, so the winner is never slower than what
// the flags alone would have run.
func raceCandidates(mc ipu.Config, m *sparse.Matrix, cfg config.Config, strategy string, budget time.Duration) (*tune.Decision, error) {
	// The default candidate is exactly what the flags alone would run: the
	// -backend/config choice, or the CLI's simulator default.
	def := cfg.EngineBackend()
	if def == "" {
		def = "sim"
	}
	return tune.Race(context.Background(), mc, m, cfg, tune.Options{
		Budget:  budget,
		Default: tune.Candidate{Strategy: strategy, Backend: def},
	})
}

// printDecision summarizes a finished race.
func printDecision(d *tune.Decision) {
	fmt.Printf("tune: raced %d candidate(s) in %.2fs (budget %.2fs)\n",
		len(d.Races), d.ElapsedSec, d.BudgetSec)
	for _, r := range d.Races {
		mark := " "
		if r.Candidate == d.Winner {
			mark = "*"
		}
		if r.Error != "" {
			fmt.Printf("  %s %-40s error: %s\n", mark, r.Candidate, r.Error)
			continue
		}
		fmt.Printf("  %s %-40s %.3e s/solve (%d iterations)\n", mark, r.Candidate, r.Seconds, r.Iterations)
	}
	fmt.Printf("tune: winner %s, %.2fx vs default %s\n", d.Winner, d.Speedup, d.Default)
}

// loadMatrix reads the Matrix Market file or runs the generator spec.
func loadMatrix(matrixPath, gen string) (*sparse.Matrix, error) {
	if matrixPath != "" {
		f, err := os.Open(matrixPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sparse.ReadMatrixMarket(f)
	}
	return sparse.GenByName(gen)
}

func run(matrixPath, gen, cfgPath, rhs string, tiles, chips int, tol float64, strategy string, verbose bool, tracePath, metricsPath string, faultRate float64, faultSeed int64, abft bool, enginePar int, backendName string, tuneOn bool, tuneBudget time.Duration) error {
	m, err := loadMatrix(matrixPath, gen)
	if err != nil {
		return err
	}
	st := m.ComputeStats()
	fmt.Printf("matrix: %d rows, %d entries (%.1f per row), symmetric=%v\n",
		st.Rows, st.NNZ, st.AvgPerRow, st.Symmetric)

	cfg := config.Default()
	if cfgPath != "" {
		f, err := os.Open(cfgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg, err = config.Parse(f)
		if err != nil {
			return err
		}
	}
	if tol > 0 {
		cfg.Solver.Tolerance = tol
		if cfg.MPIR != nil {
			cfg.MPIR.Tolerance = tol
		}
	}
	if faultRate > 0 {
		// The flags override the config's campaign; a fault campaign without a
		// configured resilience policy gets the default checkpoint/restart one.
		cfg.Fault = &config.FaultConfig{Seed: faultSeed, Rate: faultRate}
		if cfg.Recovery == nil {
			cfg.Recovery = &config.RecoveryConfig{}
		}
	}
	if abft {
		cfg.Solver.ABFT = true
	}
	if enginePar >= 0 {
		cfg.Engine = &config.EngineConfig{Parallelism: enginePar}
	}
	if backendName != "" {
		if cfg.Engine == nil {
			cfg.Engine = &config.EngineConfig{}
		}
		cfg.Engine.Backend = backendName
	}

	b := make([]float64, m.N)
	switch rhs {
	case "ones":
		ones := make([]float64, m.N)
		for i := range ones {
			ones[i] = 1
		}
		m.MulVec(ones, b)
	case "random":
		rng := rand.New(rand.NewSource(1))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
	default:
		return fmt.Errorf("unknown rhs %q", rhs)
	}

	mc := ipu.Mk2M2000()
	mc.Chips = chips
	mc.TilesPerChip = tiles
	var opts []core.Option
	if tracePath != "" {
		traceW, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer traceW.Close()
		opts = append(opts, core.WithTrace(traceW))
	}
	var reg *telemetry.Registry
	if metricsPath != "" {
		reg = telemetry.NewRegistry()
		opts = append(opts, core.WithTelemetry(reg))
	}
	if tuneOn {
		d, err := raceCandidates(mc, m, cfg, strategy, tuneBudget)
		if err != nil {
			return err
		}
		printDecision(d)
		// The winner's strategy/backend/parallelism ride WithTuned (overriding
		// the positional strategy); a preconditioner swap rewrites the config.
		opts = append(opts, core.WithTuned(d.Winner.Tuned()))
		cfg = tune.ApplyPrecond(cfg, d.Winner.Precond)
	}
	res, err := core.Solve(mc, m, b, cfg, core.PartitionStrategy(strategy), opts...)
	if err != nil {
		return err
	}
	if reg != nil {
		if err := writeMetrics(reg, metricsPath); err != nil {
			return err
		}
	}
	fmt.Printf("solver: %s\n", res.Stats.Solver)
	fmt.Printf("converged=%v iterations=%d relative-residual=%.3e\n",
		res.Stats.Converged, res.Stats.Iterations, res.Stats.RelRes)
	if cfg.Fault != nil && cfg.Fault.Rate > 0 {
		fmt.Printf("faults: %d injected (%d payload redeliveries)\n",
			len(res.Faults), res.FaultRetries)
	}
	if res.Stats.Breakdown || res.Stats.Restarts > 0 {
		fmt.Printf("resilience: breakdown=%q restarts=%d recovered=%v\n",
			res.Stats.BreakdownReason, res.Stats.Restarts, res.Stats.Recovered)
	}
	if cfg.Solver.ABFT {
		fmt.Printf("abft: %d checks, %d detections %v\n",
			res.Stats.ABFTChecks, len(res.Stats.ABFTDetected), res.Stats.ABFTDetected)
	}
	fmt.Printf("simulated time: %.3e s (%d cycles, %d supersteps, %.1f µJ/row)\n",
		res.Machine.Seconds, res.Machine.TotalCycles, res.Machine.Supersteps,
		1e6*res.Machine.EnergyJoules/float64(m.N))
	if rhs == "ones" {
		maxErr := 0.0
		for _, v := range res.X {
			if d := v - 1; d > maxErr || -d > maxErr {
				if d < 0 {
					d = -d
				}
				maxErr = d
			}
		}
		fmt.Printf("max |x_i - 1| = %.3e\n", maxErr)
	}
	if verbose {
		for _, ev := range res.Faults {
			fmt.Println("  fault:", ev)
		}
		fmt.Println("cycle profile:")
		for _, pe := range res.Profile {
			fmt.Printf("  %-24s %12d cycles %6.1f%%\n", pe.Label, pe.Cycles, pe.Share*100)
		}
		fmt.Print(res.Report)
	}
	return nil
}
