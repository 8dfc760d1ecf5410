package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tune"
)

// TuneRow is one row of Table XIII: one serving profile raced by the
// autotuner against its static default configuration. DefaultSec and TunedSec
// come from the same race harness (warm best-of solves under one budget), so
// the speedup column is the factor a serve-tier registration gains by adopting
// the decision. The default candidate is always raced in full, so Speedup is
// >= 1.0 by construction — the tuner never ships a regression.
type TuneRow struct {
	Profile    string  `json:"profile"`
	Rows       int     `json:"rows"`
	NNZ        int     `json:"nnz"`
	Default    string  `json:"default"`
	Winner     string  `json:"winner"`
	DefaultSec float64 `json:"defaultSeconds"` // warm per-solve wall, static default
	TunedSec   float64 `json:"tunedSeconds"`   // warm per-solve wall, raced winner
	Speedup    float64 `json:"speedup"`        // default / tuned, >= 1
	Races      int     `json:"races"`          // candidates measured within the budget
	ElapsedSec float64 `json:"elapsedSeconds"` // what the race itself cost
}

// tuneCG is the first profile's hierarchy. The iteration cap is sized for the
// full-mode 16^3 grid — backendCG's 40-iteration budget converges on the quick
// grid but not at 4096 rows, and a race where nothing converges is an error.
func tuneCG() config.Config {
	return config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 400, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
}

// tunePBiCGStab is the paper's reference serving hierarchy at a bounded
// iteration budget — the second profile of the study.
func tunePBiCGStab() config.Config {
	return config.Config{Solver: config.SolverConfig{
		Type: "pbicgstab", MaxIterations: 200, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "ilu0"},
	}}
}

// TuneStudy measures Table XIII: what the registration-time autotuner buys
// over each profile's static default. Three serving profiles are raced on the
// single-chip machine:
//
//   - cg+jacobi on the native default — the tuner shops partition strategy
//     and preconditioner around an already sensible choice, so wins are
//     modest;
//   - pbicgstab+ilu0 on the native default — same regime, heavier solver;
//   - cg+jacobi with the config pinned to the simulator backend — the
//     misconfigured-profile case: the tuner discovers the native backend
//     solves the same system bit-for-bit several times faster.
func TuneStudy(o Options) ([]TuneRow, error) {
	o = o.withDefaults()
	mc := o.machineConfig(1)
	n := 16 // Poisson3D edge: 4096 rows
	budget := 4 * time.Second
	if o.Scale > 64 {
		// Quick mode (tests): tiny grid, shapes only. The field of at most 4
		// finishes well inside the budget, which only has to let the native
		// repair race after a slow sim default (under -race too).
		n = 8
		budget = time.Second
	}

	simPinned := tuneCG()
	simPinned.Engine = &config.EngineConfig{Backend: "sim"}
	profiles := []struct {
		name string
		cfg  config.Config
	}{
		{"cg+jacobi/native", tuneCG()},
		{"pbicgstab+ilu0/native", tunePBiCGStab()},
		{"cg+jacobi/sim-pinned", simPinned},
	}

	m := sparse.Poisson3D(n, n, n)
	rows := make([]TuneRow, 0, len(profiles))
	for _, p := range profiles {
		d, err := tune.Race(context.Background(), mc, m, p.cfg, tune.Options{
			Budget:  budget,
			Default: tune.Candidate{Backend: p.cfg.EngineBackend()},
		})
		if err != nil {
			return nil, fmt.Errorf("tune %s: %w", p.name, err)
		}
		rows = append(rows, TuneRow{
			Profile:    p.name,
			Rows:       m.N,
			NNZ:        m.NNZ(),
			Default:    d.Default.String(),
			Winner:     d.Winner.String(),
			DefaultSec: d.DefaultSec,
			TunedSec:   d.WinnerSec,
			Speedup:    d.Speedup,
			Races:      len(d.Races),
			ElapsedSec: d.ElapsedSec,
		})
	}
	return rows, nil
}

// singleCoreWarning flags a measurement host that cannot show parallel
// speedup: with one schedulable core a parallel arm measures goroutine
// scheduling overhead, not sharded execution.
func singleCoreWarning() string {
	if runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1 {
		return ""
	}
	return fmt.Sprintf("single-core host (NumCPU=%d, GOMAXPROCS=%d): parallel arms measure scheduling overhead, not speedup",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// PrintTuneStudy renders Table XIII.
func PrintTuneStudy(o Options, rows []TuneRow) {
	o.printf("Table XIII: autotuned vs default configuration per serving profile\n")
	if w := singleCoreWarning(); w != "" {
		o.printf("WARNING: %s\n", w)
	}
	o.printf("%-24s %8s %8s %-26s %-30s %12s %12s %9s %6s\n",
		"profile", "rows", "nnz", "default", "winner", "default s", "tuned s", "speedup", "races")
	for _, r := range rows {
		o.printf("%-24s %8d %8d %-26s %-30s %12.4e %12.4e %8.2fx %6d\n",
			r.Profile, r.Rows, r.NNZ, r.Default, r.Winner,
			r.DefaultSec, r.TunedSec, r.Speedup, r.Races)
	}
}
