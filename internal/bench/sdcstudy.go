package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
)

// SDCOverheadRow is the cost half of Table XI: the warm prepared-pipeline CG
// latency with ABFT off versus on. The checksum-carrying SpMV and the
// divergence guards are the price of never serving a silently wrong answer;
// the study pins that price (the paper's budget is <=15% on the native
// serving path).
type SDCOverheadRow struct {
	Backend    string  `json:"backend"`
	Rows       int     `json:"rows"`
	Tiles      int     `json:"tiles"`
	OffSec     float64 `json:"offSeconds"`     // warm wall per solve, ABFT off
	OnSec      float64 `json:"onSeconds"`      // warm wall per solve, ABFT on
	Overhead   float64 `json:"overhead"`       // on/off - 1
	ChecksRun  uint64  `json:"checksPerSolve"` // checksum verifications per solve
	Iterations int     `json:"iterations"`
}

// SDCCampaignRow is the detection half of Table XI: seeded fault campaigns
// of one kind against ABFT-armed solves, classified by outcome. Every
// campaign must end clean, recovered (in-loop detection + checkpoint
// restart) or typed-rejected; Escapes counts converged answers the
// independent float64 oracle refuted — silent data corruption, and the
// column whose only acceptable value is zero.
type SDCCampaignRow struct {
	Backend    string `json:"backend"`
	Kind       string `json:"kind"`
	Campaigns  int    `json:"campaigns"`
	Injected   int    `json:"faultsInjected"`
	Detections int    `json:"abftDetections"`
	Clean      int    `json:"clean"`
	Recovered  int    `json:"recovered"`
	Rejected   int    `json:"typedRejected"`
	Escapes    int    `json:"silentEscapes"`
	// EscapeLog names each escape (kind, seed, oracle residual) for the
	// gate's failure output.
	EscapeLog []string `json:"-"`
}

// SDCTable is Table XI: the cost half and the detection half.
type SDCTable struct {
	Overhead  []SDCOverheadRow
	Campaigns []SDCCampaignRow
}

// SDCStudy measures Table XI on both backends: the ABFT overhead of the warm
// serving workload and the outcome distribution of seeded corruption
// campaigns. Campaign outcomes are bitwise-replayable, so the sim and native
// rows of the same kind must agree exactly — a divergence means the backends
// consult the injector differently.
func SDCStudy(o Options) (SDCTable, error) {
	o = o.withDefaults()
	n := 24
	seeds := 16
	if o.Scale > 64 {
		// Quick mode (tests): shapes only.
		n = 10
		seeds = 4
	}
	m3 := sparse.Poisson3D(n, n, n)

	var t SDCTable
	for _, be := range []string{"native", "sim"} {
		row, err := sdcOverheadRow(be, o, m3)
		if err != nil {
			return t, fmt.Errorf("sdc overhead %s: %w", be, err)
		}
		t.Overhead = append(t.Overhead, row)
	}

	// The campaign sweep runs on the small cross-backend identity system so
	// the sim arm stays affordable at full scale.
	m2 := sparse.Poisson2D(12, 12)
	cmc := o.machineConfig(1)
	cmc.TilesPerChip = 8
	for _, be := range []string{"native", "sim"} {
		for _, kind := range []string{"bit-flip", "exchange-corrupt"} {
			row, err := SDCCampaign(SDCCampaignSpec{
				Backend: be, Kind: kind, Seeds: seeds, Rate: 0.02, MaxFaults: 8,
				Machine: cmc, Matrix: m2,
			})
			if err != nil {
				return t, fmt.Errorf("sdc campaign %s/%s: %w", be, kind, err)
			}
			t.Campaigns = append(t.Campaigns, row)
		}
	}
	return t, nil
}

// sdcOverheadRow measures the warm fixed-budget CG latency of one backend
// with ABFT off and on. The two arms share one prepared pipeline each and
// their reps are interleaved (off, on, off, on, ...), so scheduler noise on
// a shared host lands on both sides of a pair instead of biasing the ratio.
func sdcOverheadRow(be string, o Options, m *sparse.Matrix) (SDCOverheadRow, error) {
	mc := o.machineConfig(1)
	b := rhsForSolution(m)
	x := make([]float64, m.N)

	prep := func(abft bool) (*core.Prepared, error) {
		cfg := backendCG()
		cfg.Solver.ABFT = abft
		p, err := core.Prepare(mc, m, cfg, core.PartitionContiguous, core.WithBackend(be))
		if err != nil {
			return nil, err
		}
		if _, err := p.SolveInto(x, b); err != nil { // warm-up: grows every buffer once
			return nil, err
		}
		return p, nil
	}
	pOff, err := prep(false)
	if err != nil {
		return SDCOverheadRow{}, err
	}
	pOn, err := prep(true)
	if err != nil {
		return SDCOverheadRow{}, err
	}

	// The overhead estimate is the median of the per-pair on/off ratios: a
	// load spike hits both halves of its pair, so the ratio survives noise
	// that would wreck a best-of comparison of independent minima.
	const reps = 15
	offs := make([]float64, reps)
	ratios := make([]float64, reps)
	var st core.SolveStats
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := pOff.SolveInto(x, b); err != nil {
			return SDCOverheadRow{}, err
		}
		offs[r] = time.Since(t0).Seconds()
		t0 = time.Now()
		if st, err = pOn.SolveInto(x, b); err != nil {
			return SDCOverheadRow{}, err
		}
		ratios[r] = time.Since(t0).Seconds() / offs[r]
	}
	off := median(offs)
	ratio := median(ratios)
	return SDCOverheadRow{
		Backend: be, Rows: m.N, Tiles: mc.NumTiles(),
		OffSec: off, OnSec: off * ratio, Overhead: ratio - 1,
		ChecksRun: st.ABFTChecks, Iterations: st.Iterations,
	}, nil
}

// SDCCampaignSpec is one sweep of SDCCampaign: seeds 1..Seeds of one fault
// kind on one backend against one system.
type SDCCampaignSpec struct {
	Backend   string
	Kind      string
	Seeds     int
	Rate      float64 // per-consultation fault probability
	MaxFaults int     // cap on injected faults per campaign
	Machine   ipu.Config
	Matrix    *sparse.Matrix
}

// SDCCampaign sweeps the spec's seeds and classifies every campaign outcome
// against the float64 host oracle. The solve is CG+Jacobi, ABFT armed, with
// the checkpoint/restart policy, so detections recover in place when the
// budget allows and surface typed when it does not.
func SDCCampaign(sp SDCCampaignSpec) (SDCCampaignRow, error) {
	m := sp.Matrix
	row := SDCCampaignRow{Backend: sp.Backend, Kind: sp.Kind, Campaigns: sp.Seeds}
	ones := make([]float64, m.N)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, m.N)
	m.MulVec(ones, b)
	var bn float64
	for _, v := range b {
		bn += v * v
	}
	bn = math.Sqrt(bn)

	const tol = 1e-8
	for seed := int64(1); seed <= int64(sp.Seeds); seed++ {
		cfg := config.Config{
			Solver: config.SolverConfig{
				Type: "cg", MaxIterations: 600, Tolerance: tol, ABFT: true,
				Preconditioner: &config.SolverConfig{Type: "jacobi"},
			},
			Recovery: &config.RecoveryConfig{Interval: 5, MaxRestarts: 25},
			Fault: &config.FaultConfig{
				Seed: seed, Rate: sp.Rate, MaxFaults: sp.MaxFaults, Kinds: []string{sp.Kind},
			},
			Engine: &config.EngineConfig{Backend: sp.Backend},
		}
		res, err := core.Solve(sp.Machine, m, b, cfg, core.PartitionContiguous)
		if err != nil {
			// A failed campaign is honest only when the rejection is typed:
			// an ABFT/divergence breakdown or an injector step error.
			if _, ok := solver.IsBreakdown(err); ok {
				row.Rejected++
				continue
			}
			if _, ok := graph.AsStepError(err); ok {
				row.Rejected++
				continue
			}
			return row, fmt.Errorf("seed %d: untyped failure: %w", seed, err)
		}
		row.Injected += len(res.Faults)
		row.Detections += len(res.Stats.ABFTDetected)
		if !res.Stats.Converged {
			row.Rejected++ // honest non-convergence, not a wrong answer
			continue
		}
		// The oracle: an independent float64 residual on the host. A
		// converged claim that fails it is a silent escape.
		ax := make([]float64, m.N)
		m.MulVec(res.X, ax)
		var rn float64
		finite := true
		for i := range ax {
			d := b[i] - ax[i]
			rn += d * d
			finite = finite && !math.IsNaN(res.X[i]) && !math.IsInf(res.X[i], 0)
		}
		if relres := math.Sqrt(rn) / bn; relres > tol*100 || !finite {
			row.Escapes++
			row.EscapeLog = append(row.EscapeLog,
				fmt.Sprintf("%s seed %d converged with oracle relres %.3e", sp.Kind, seed, relres))
			continue
		}
		if res.Stats.Restarts > 0 || len(res.Stats.ABFTDetected) > 0 {
			row.Recovered++
		} else {
			row.Clean++
		}
	}
	return row, nil
}

// backendCG is the fixed-budget Jacobi-preconditioned CG whose warm latency
// the overhead rows compare.
func backendCG() config.Config {
	return config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 40, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// PrintSDCStudy renders Table XI.
func PrintSDCStudy(o Options, t SDCTable) {
	o.printf("Table XI: silent-data-corruption study (ABFT cost and seeded-campaign outcomes)\n")
	o.printf("%-8s %9s %7s %12s %12s %9s %8s %6s\n",
		"backend", "rows", "tiles", "off s", "on s", "overhead", "checks", "iters")
	for _, r := range t.Overhead {
		o.printf("%-8s %9d %7d %12.4e %12.4e %8.1f%% %8d %6d\n",
			r.Backend, r.Rows, r.Tiles, r.OffSec, r.OnSec, 100*r.Overhead, r.ChecksRun, r.Iterations)
	}
	o.printf("%-8s %-18s %9s %9s %7s %6s %10s %9s %8s\n",
		"backend", "kind", "campaigns", "injected", "clean", "recov", "detections", "rejected", "escapes")
	for _, r := range t.Campaigns {
		o.printf("%-8s %-18s %9d %9d %7d %6d %10d %9d %8d\n",
			r.Backend, r.Kind, r.Campaigns, r.Injected, r.Clean, r.Recovered,
			r.Detections, r.Rejected, r.Escapes)
	}
}
