package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden.json from this tree")

// goldenRows is the golden file's shape: row name to field name to value.
// Counts are decimal, float64s are the hex of their bits.
type goldenRows map[string]map[string]string

func (g goldenRows) put(row, field string, v uint64) {
	if g[row] == nil {
		g[row] = map[string]string{}
	}
	g[row][field] = strconv.FormatUint(v, 10)
}

// putRun records one simulated run: its machine accounting and per-label
// cycle profile.
func (g goldenRows) putRun(row string, s ipu.Stats, profile map[string]uint64) {
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"cycles", s.TotalCycles}, {"compute", s.ComputeCycles}, {"exchange", s.ExchangeCycles},
		{"sync", s.SyncCycles}, {"supersteps", s.Supersteps}, {"exchanges", s.Exchanges},
		{"exchangeBytes", s.ExchangeBytes},
	} {
		g.put(row, f.name, f.v)
	}
	for label, c := range profile {
		g.put(row, "profile:"+label, c)
	}
}

func (g goldenRows) putFloat(row, field string, v float64) {
	if g[row] == nil {
		g[row] = map[string]string{}
	}
	g[row][field] = fmt.Sprintf("%x", math.Float64bits(v))
}

// TestPaperGolden recomputes every simulator-backed row of the paper's tables
// and figures at the unit-test scale and diffs its exact-repeat fields, field
// by field, against testdata/paper.golden.json:
//
//   - per simulated run (Table IV, Figs 5–10): total, compute, exchange and
//     sync cycles, supersteps, exchanges, exchange bytes and the per-label
//     cycle profile; iterations and the relative residual's bits where a
//     solver reports them;
//   - Table I's measured op cycles, Table IV's shares, Table V's seeded fault
//     campaign rows, Figs 9/10's best residuals and the halo study's exchange
//     programs;
//   - Table XI's ABFT-armed CG on the simulator (the only billed checksum
//     set) and the outcome counts of two seeded campaigns.
//
// None of it depends on wall time, so it repeats exactly. A change that moves
// a field reruns with -update and the file's diff is the review. Rows left
// out: Table II (matrix shapes, nothing simulated), Table III (static),
// Table XI's timed overhead columns and native rows, and the tune study (it
// races clocks).
func TestPaperGolden(t *testing.T) {
	got := goldenRows{}
	o := fastOpts()
	o.observe = func(row string, eng *graph.Engine, st *solver.RunStats) {
		if got[row] != nil {
			t.Fatalf("row %q observed twice", row)
		}
		got.putRun(row, eng.M.Stats(), eng.Profile)
		if st != nil {
			got.put(row, "iterations", uint64(st.Iterations))
			got.putFloat(row, "relRes", st.RelRes)
		}
	}

	t1, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t1 {
		got.put("table1/"+r.Type, "add", r.AddCycles)
		got.put("table1/"+r.Type, "mul", r.MulCycles)
		got.put("table1/"+r.Type, "div", r.DivCycles)
	}
	t4, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t4 {
		got.putFloat("table4/shares", r.Operation+":dw", r.ShareDW)
		got.putFloat("table4/shares", r.Operation+":dp", r.ShareDP)
	}
	t5, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t5 {
		row := "table5/" + r.Config
		got.put(row, "cycles", r.Cycles)
		got.put(row, "iterations", uint64(r.Iterations))
		got.put(row, "faults", uint64(r.Faults))
		got.put(row, "restarts", uint64(r.Restarts))
	}
	for _, fig := range []func(Options) ([]ScalingPoint, error){Fig5, Fig6} {
		if _, err := fig(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, fig := range []func(Options) ([]CompareRow, error){Fig7, Fig8} {
		if _, err := fig(o); err != nil {
			t.Fatal(err)
		}
	}
	for name, fig := range map[string]func(Options) ([]ConvSeries, error){"fig9": Fig9, "fig10": Fig10} {
		series, err := fig(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			got.putFloat(name+"/"+s.Config, "final", s.Final)
		}
	}
	// Table XI on the simulator: the ABFT-armed CG of its overhead rows (the
	// only row that bills the checksum set) and two seeded campaigns (billed
	// sets and exchanges under an injector), both at the study's quick size.
	cfg := backendCG()
	cfg.Solver.ABFT = true
	cfg.Engine = &config.EngineConfig{Backend: "sim"}
	m := sparse.Poisson3D(10, 10, 10)
	r, err := core.Solve(o.machineConfig(1), m, rhsForSolution(m), cfg, core.PartitionContiguous)
	if err != nil {
		t.Fatal(err)
	}
	profile := map[string]uint64{}
	for _, pe := range r.Profile {
		profile[pe.Label] = pe.Cycles
	}
	got.putRun("sdc/abft-cg", r.Machine, profile)
	got.put("sdc/abft-cg", "iterations", uint64(r.Stats.Iterations))
	got.put("sdc/abft-cg", "checks", r.Stats.ABFTChecks)
	got.putFloat("sdc/abft-cg", "relRes", r.Stats.RelRes)
	cmc := o.machineConfig(1)
	cmc.TilesPerChip = 8
	for _, kind := range []string{"bit-flip", "exchange-corrupt"} {
		c, err := SDCCampaign(SDCCampaignSpec{Backend: "sim", Kind: kind, Seeds: 4, Rate: 0.02, MaxFaults: 8,
			Machine: cmc, Matrix: sparse.Poisson2D(12, 12)})
		if err != nil {
			t.Fatal(err)
		}
		row := "sdc/campaign " + kind
		for _, f := range []struct {
			name string
			v    int
		}{
			{"injected", c.Injected}, {"clean", c.Clean}, {"recovered", c.Recovered},
			{"detections", c.Detections}, {"rejected", c.Rejected}, {"escapes", c.Escapes},
		} {
			got.put(row, f.name, uint64(f.v))
		}
	}
	halo, err := HaloStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range halo {
		row := fmt.Sprintf("halo/tiles=%d", r.Tiles)
		got.put(row, "blockInstr", uint64(r.BlockInstr))
		got.put(row, "perCellInstr", uint64(r.PerCellInstr))
		got.put(row, "blockCycles", r.BlockCycles)
		got.put(row, "perCellCycles", r.PerCellCycles)
	}

	path := filepath.Join("testdata", "paper.golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	var want goldenRows
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for row, fields := range want {
		for field, w := range fields {
			if g, ok := got[row][field]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s %s: missing, want %s", row, field, w))
			} else if g != w {
				diffs = append(diffs, fmt.Sprintf("%s %s: %s, want %s", row, field, g, w))
			}
		}
	}
	for row, fields := range got {
		for field, g := range fields {
			if _, ok := want[row][field]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s %s: %s, not in the golden file", row, field, g))
			}
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
}
