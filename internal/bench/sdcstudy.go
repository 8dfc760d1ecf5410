package bench

import (
	"fmt"
	"math"
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
}

// SDCStudy measures Table XI on both backends: the ABFT overhead of the warm
// serving workload and the outcome distribution of seeded corruption
// campaigns. Campaign outcomes are bitwise-replayable, so the sim and native
// rows of the same kind must agree exactly — a divergence means the backends
// consult the injector differently.
func SDCStudy(o Options) ([]SDCOverheadRow, []SDCCampaignRow, error) {
	o = o.withDefaults()
	n := 24
	seeds := 16
	if o.Scale > 64 {
		// Quick mode (tests): shapes only.
		n = 10
		seeds = 4
	}
	m3 := sparse.Poisson3D(n, n, n)

	var overhead []SDCOverheadRow
	for _, be := range []string{"native", "sim"} {
		row, err := sdcOverheadRow(be, o, m3)
		if err != nil {
			return nil, nil, fmt.Errorf("sdc overhead %s: %w", be, err)
		}
		overhead = append(overhead, row)
	}

	// The campaign sweep runs on the small cross-backend identity system so
	// the sim arm stays affordable at full scale.
	m2 := sparse.Poisson2D(12, 12)
	cmc := o.machineConfig(1)
	cmc.TilesPerChip = 8
	var campaigns []SDCCampaignRow
	for _, be := range []string{"native", "sim"} {
		for _, kind := range []string{"bit-flip", "exchange-corrupt"} {
			row, err := sdcCampaignRow(be, kind, seeds, cmc, m2)
			if err != nil {
				return nil, nil, fmt.Errorf("sdc campaign %s/%s: %w", be, kind, err)
			}
			campaigns = append(campaigns, row)
		}
	}
	return overhead, campaigns, nil
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

// sdcCampaignRow sweeps the given seeds of one fault kind on one backend and
// classifies every campaign outcome against the float64 host oracle.
func sdcCampaignRow(be, kind string, seeds int, mc ipu.Config, m *sparse.Matrix) (SDCCampaignRow, error) {
	row := SDCCampaignRow{Backend: be, Kind: kind, Campaigns: seeds}
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
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := config.Config{
			Solver: config.SolverConfig{
				Type: "cg", MaxIterations: 600, Tolerance: tol, ABFT: true,
				Preconditioner: &config.SolverConfig{Type: "jacobi"},
			},
			Recovery: &config.RecoveryConfig{Interval: 5, MaxRestarts: 25},
			Fault: &config.FaultConfig{
				Seed: seed, Rate: 0.02, MaxFaults: 8, Kinds: []string{kind},
			},
			Engine: &config.EngineConfig{Backend: be},
		}
		res, err := core.Solve(mc, m, b, cfg, core.PartitionContiguous)
		if err != nil {
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
			row.Rejected++
			continue
		}
		ax := make([]float64, m.N)
		m.MulVec(res.X, ax)
		var rn float64
		for i := range ax {
			d := b[i] - ax[i]
			rn += d * d
		}
		if math.Sqrt(rn)/bn > tol*100 {
			row.Escapes++
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

// PrintSDCStudy renders Table XI.
func PrintSDCStudy(o Options, overhead []SDCOverheadRow, campaigns []SDCCampaignRow) {
	o.printf("Table XI: silent-data-corruption study (ABFT cost and seeded-campaign outcomes)\n")
	o.printf("%-8s %9s %7s %12s %12s %9s %8s %6s\n",
		"backend", "rows", "tiles", "off s", "on s", "overhead", "checks", "iters")
	for _, r := range overhead {
		o.printf("%-8s %9d %7d %12.4e %12.4e %8.1f%% %8d %6d\n",
			r.Backend, r.Rows, r.Tiles, r.OffSec, r.OnSec, 100*r.Overhead, r.ChecksRun, r.Iterations)
	}
	o.printf("%-8s %-18s %9s %9s %7s %6s %10s %9s %8s\n",
		"backend", "kind", "campaigns", "injected", "clean", "recov", "detections", "rejected", "escapes")
	for _, r := range campaigns {
		o.printf("%-8s %-18s %9d %9d %7d %6d %10d %9d %8d\n",
			r.Backend, r.Kind, r.Campaigns, r.Injected, r.Clean, r.Recovered,
			r.Detections, r.Rejected, r.Escapes)
	}
}
