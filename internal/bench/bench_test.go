package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastOpts keeps the experiments small enough for the unit-test suite while
// preserving the shapes under test. Scale must stay <= 368 so the comparison
// machine's tiles-per-chip (1472/Scale) matches the matrix reduction exactly
// — beyond that the 4-tile floor distorts the per-tile load and with it the
// platform ratios.
func fastOpts() Options {
	return Options{Scale: 256, Tiles: 16, Seed: 7}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("Table I has three types")
	}
	want := []struct{ add, mul, div uint64 }{
		{6, 6, 6}, {132, 162, 240}, {1080, 1260, 2520},
	}
	for i, w := range want {
		r := rows[i]
		if r.AddCycles != w.add || r.MulCycles != w.mul || r.DivCycles != w.div {
			t.Errorf("%s: measured %d/%d/%d, want %d/%d/%d",
				r.Type, r.AddCycles, r.MulCycles, r.DivCycles, w.add, w.mul, w.div)
		}
	}
	// Accuracy ordering: f32 < DW < soft double.
	if !(rows[0].MeasuredDigits < rows[1].MeasuredDigits &&
		rows[1].MeasuredDigits <= rows[2].MeasuredDigits) {
		t.Errorf("digit ordering wrong: %v %v %v",
			rows[0].MeasuredDigits, rows[1].MeasuredDigits, rows[2].MeasuredDigits)
	}
	if rows[1].MeasuredDigits < 12 {
		t.Errorf("double-word digits %.1f, want >= 12", rows[1].MeasuredDigits)
	}
}

func TestTable2StandIns(t *testing.T) {
	rows, err := Table2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatal("Table II has four matrices")
	}
	for _, r := range rows {
		if !r.SPD {
			t.Errorf("%s: stand-in not SPD", r.Name)
		}
		if r.Rows <= 0 || r.NNZ <= 0 {
			t.Errorf("%s: empty stand-in", r.Name)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table IV has 5 operation classes, got %d", len(rows))
	}
	var sumDW, sumDP float64
	shares := map[string]Table4Row{}
	for _, r := range rows {
		sumDW += r.ShareDW
		sumDP += r.ShareDP
		shares[r.Operation] = r
	}
	if sumDW < 0.95 || sumDW > 1.01 || sumDP < 0.95 || sumDP > 1.01 {
		t.Errorf("shares should sum to ~1: DW %.2f DP %.2f", sumDW, sumDP)
	}
	// Paper shapes: ILU(0) Solve dominates; extended-precision overhead is
	// larger with soft-double than with double-word.
	if shares["ILU(0) Solve"].ShareDW < shares["Elementwise Ops"].ShareDW {
		t.Error("ILU(0) Solve should dominate Elementwise Ops (DW)")
	}
	if shares["Extended-Precision Ops"].ShareDP <= shares["Extended-Precision Ops"].ShareDW {
		t.Error("soft-double extended ops should cost a larger share than double-word")
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table V has 4 configurations, got %d", len(rows))
	}
	base := rows[0]
	if !base.Converged || base.Faults != 0 || base.Restarts != 0 {
		t.Fatalf("baseline row wrong: %+v", base)
	}
	ckpt := rows[1]
	if !ckpt.Converged || ckpt.Faults != 0 || ckpt.Breakdown != "" {
		t.Fatalf("fault-free checkpointing row wrong: %+v", ckpt)
	}
	if ckpt.IterOverheadPct < 0 || ckpt.CycleOverheadPct < 0 {
		t.Errorf("checkpointing overhead cannot be negative: %+v", ckpt)
	}
	for _, r := range rows[2:] {
		if r.Faults == 0 {
			t.Errorf("%s: campaign injected no faults", r.Config)
		}
		// A faulty run either converges (possibly after restarts) or reports a
		// typed breakdown; it never silently returns garbage.
		if !r.Converged && r.Breakdown == "" {
			t.Errorf("%s: neither converged nor broke down: %+v", r.Config, r)
		}
	}
}

func TestFig5StrongScaling(t *testing.T) {
	pts, err := Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("5 machine sizes expected, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Errorf("speedup must grow: %v", pts)
		}
	}
	last := pts[len(pts)-1]
	if last.SpeedupComp < last.Speedup {
		t.Error("compute-only speedup should be at least the total speedup (paper's orange line)")
	}
	// Near-ideal: the compute part should scale close to the chip ratio.
	if last.SpeedupComp < 0.7*float64(last.Chips) {
		t.Errorf("compute speedup %.1f too far from ideal %d", last.SpeedupComp, last.Chips)
	}
}

func TestFig6WeakScaling(t *testing.T) {
	pts, err := Fig6(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Ideal weak scaling: time stays flat although the problem grows ~16x.
	min, max := pts[0].TotalSec, pts[0].TotalSec
	for _, p := range pts {
		if p.TotalSec < min {
			min = p.TotalSec
		}
		if p.TotalSec > max {
			max = p.TotalSec
		}
	}
	if max/min > 1.6 {
		t.Errorf("weak scaling not flat: max/min = %.2f", max/min)
	}
	if pts[len(pts)-1].NNZ < 10*pts[0].NNZ {
		t.Error("problem should grow with the machine")
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatal("four matrices expected")
	}
	for _, r := range rows {
		// Paper: IPU beats GPU by 13-19x and CPU by 55-150x; accept a
		// generous band around those (the models are calibrated, the
		// simulator measured).
		cpuRatio := r.CPUSec / r.IPUSec
		gpuRatio := r.GPUSec / r.IPUSec
		if cpuRatio < 25 || cpuRatio > 500 {
			t.Errorf("%s: CPU/IPU ratio %.0f outside plausible band", r.Matrix, cpuRatio)
		}
		if gpuRatio < 4 || gpuRatio > 80 {
			t.Errorf("%s: GPU/IPU ratio %.0f outside plausible band", r.Matrix, gpuRatio)
		}
		if !(r.IPUSec < r.GPUSec && r.GPUSec < r.CPUSec) {
			t.Errorf("%s: ordering IPU < GPU < CPU violated", r.Matrix)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.IPUSec < r.GPUSec && r.GPUSec < r.CPUSec) {
			t.Errorf("%s: ordering IPU < GPU < CPU violated", r.Matrix)
		}
		// The tile-local ILU is weaker than the global ILU: the IPU needs
		// more iterations (paper §VI-D).
		if r.IPUIters <= r.CPUIters {
			t.Errorf("%s: IPU iterations (%d) should exceed CPU's (%d)", r.Matrix, r.IPUIters, r.CPUIters)
		}
		// The CPU closes the gap versus fig7 (paper: 3-7x here vs 55-150x
		// there): the solver ratio must be far below the SpMV ratio band.
		if ratio := r.CPUSec / r.IPUSec; ratio > 60 {
			t.Errorf("%s: CPU/IPU solver ratio %.0f should be far below the SpMV ratio", r.Matrix, ratio)
		}
	}
}

func TestFig9Convergence(t *testing.T) {
	series, err := convergenceStudy(fastOpts(), "fig9", "Geo_1438", 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatal("four configurations expected")
	}
	byName := map[string]ConvSeries{}
	for _, s := range series {
		byName[s.Config] = s
	}
	noIR := byName["PBiCGStab+ILU(0)"]
	ir := byName["IR-PBiCGStab+ILU(0)"]
	dw := byName["MPIR-DW-PBiCGStab+ILU(0)"]
	dp := byName["MPIR-DP-PBiCGStab+ILU(0)"]
	// Paper Figs 9/10: the non-MPIR configurations stall around 1e-6; the
	// MPIR ones reach ~1e-13 (DW) and ~1e-15 (DP).
	if noIR.Final < 1e-8 {
		t.Errorf("no-IR reached %.1e; float32 should stall near 1e-6", noIR.Final)
	}
	if ir.Final < 1e-8 {
		t.Errorf("plain IR reached %.1e; should not improve over no-IR", ir.Final)
	}
	if dw.Final > 1e-11 {
		t.Errorf("MPIR-DW stalled at %.1e, want < 1e-11", dw.Final)
	}
	if dp.Final > 1e-13 {
		t.Errorf("MPIR-DP stalled at %.1e, want < 1e-13", dp.Final)
	}
	if dp.Final > dw.Final {
		t.Error("MPIR-DP should reach at least MPIR-DW accuracy")
	}
}

// TestTuneStudyShape checks Table XIII's claims at quick scale: every row
// races at most 4 candidates, the raced winner never loses to the default,
// and the sim-pinned profile is repaired onto the native backend.
func TestTuneStudyShape(t *testing.T) {
	rows, err := TuneStudy(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table XIII has %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Races < 1 || r.Races > 4 {
			t.Errorf("%s: raced %d candidates, want 1..4", r.Profile, r.Races)
		}
		if r.Speedup < 1 {
			t.Errorf("%s: speedup %.3f < 1", r.Profile, r.Speedup)
		}
		if strings.HasSuffix(r.Profile, "sim-pinned") && strings.Split(r.Winner, "/")[1] != "native" {
			t.Errorf("%s: winner %s, want a native repair", r.Profile, r.Winner)
		}
	}
}

func TestRunAllExperimentsPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	var buf bytes.Buffer
	o := fastOpts()
	o.Out = &buf
	for _, name := range Names() {
		if err := Run(o, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV",
		"Table V", "Table XI", "Table XIII", "Halo reordering study",
		"Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9", "Fig 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := Run(fastOpts(), "fig99")
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	for _, name := range append([]string{"all"}, Names()...) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestRunJSONArtifacts runs every artifact-backed study through the one
// shared emitter and pins the envelope keys of the committed BENCH_*.json
// files; an experiment without an artifact is an error that writes nothing.
func TestRunJSONArtifacts(t *testing.T) {
	dir := t.TempDir()
	for name, payload := range map[string][]string{
		"tune": {"rows"}, "sdc": {"overhead", "campaigns"},
	} {
		path := filepath.Join(dir, name+".json")
		if err := RunJSON(fastOpts(), name, path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got["bench"]) != `"`+name+`"` {
			t.Errorf("%s: bench = %s", name, got["bench"])
		}
		for _, key := range append([]string{"hostCores", "gomaxprocs"}, payload...) {
			if _, ok := got[key]; !ok {
				t.Errorf("%s: artifact missing %q: %s", name, key, raw)
			}
		}
	}
	path := filepath.Join(dir, "table1.json")
	if err := RunJSON(fastOpts(), "table1", path); err == nil {
		t.Error("table1 has no artifact, want an error")
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("failed RunJSON still wrote a file")
	}
}

func TestScaleSide(t *testing.T) {
	if scaleSide(200, 1) != 200 {
		t.Error("scale 1 keeps the side")
	}
	if s := scaleSide(200, 8); s < 95 || s > 105 {
		t.Errorf("scale 8 should halve the side, got %d", s)
	}
	if scaleSide(10, 1_000_000) < 8 {
		t.Error("side must stay above the floor")
	}
}

func TestHaloStudy(t *testing.T) {
	o := fastOpts()
	o.Scale = 1024
	rows, err := HaloStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BlockInstr >= r.PerCellInstr {
			t.Errorf("tiles=%d: blockwise program (%d) must be smaller than per-cell (%d)",
				r.Tiles, r.BlockInstr, r.PerCellInstr)
		}
		if r.BlockCycles >= r.PerCellCycles {
			t.Errorf("tiles=%d: blockwise exchange (%d cycles) must beat per-cell (%d)",
				r.Tiles, r.BlockCycles, r.PerCellCycles)
		}
		if r.BlockInstr != r.Regions {
			t.Errorf("tiles=%d: one instruction per region expected", r.Tiles)
		}
	}
	// Separator cells grow with the tile count (surface-to-volume).
	if rows[len(rows)-1].SeparatorCells <= rows[0].SeparatorCells {
		t.Error("separator cells should grow with tiles")
	}
}
