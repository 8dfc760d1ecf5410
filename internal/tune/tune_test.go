package tune

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

func testMachine() ipu.Config {
	mc := ipu.Mk2M2000()
	mc.TilesPerChip = 8
	mc.Chips = 1
	return mc
}

func cgJacobi() config.Config {
	return config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 200, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
}

// TestCandidatesDefaultFirstAndDeduped pins the enumeration contract: the
// normalized default leads, no two candidates prepare the same pipeline, and
// the preconditioner swap makes the field.
func TestCandidatesDefaultFirstAndDeduped(t *testing.T) {
	cands := Candidates(cgJacobi(), Candidate{})
	if len(cands) == 0 {
		t.Fatal("enumerated no candidates")
	}
	def := cands[0]
	if def.Strategy != "contiguous" || def.Precond != "jacobi" {
		t.Fatalf("default candidate %+v not normalized from the config", def)
	}
	seen := map[Candidate]bool{}
	swap := false
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("candidate %v prepares a pipeline already in the field %v", c, cands)
		}
		seen[c] = true
		swap = swap || c.Precond == "ilu0"
	}
	if !swap {
		t.Fatalf("jacobi<->ilu0 swap missing from the field %v", cands)
	}
}

// TestCandidatesRaceOnlyWhatCanWin: the field is the default, the other
// partition strategy and the preconditioner swap (at most 3 on a jacobi
// default), and an engine block pinning the simulator changes none of it.
func TestCandidatesRaceOnlyWhatCanWin(t *testing.T) {
	native := Candidates(cgJacobi(), Candidate{})
	if len(native) > 3 {
		t.Fatalf("jacobi default races %d candidates, want <= 3: %v", len(native), native)
	}
	cfg := cgJacobi()
	cfg.Engine = &config.EngineConfig{Backend: "sim"}
	if sim := Candidates(cfg, Candidate{}); !slices.Equal(sim, native) {
		t.Fatalf("sim-pinned field %v differs from the plain field %v", sim, native)
	}
}

// TestRaceWinnerBeatsDefault is the core guarantee: the default is always
// raced in full, so the returned winner ties or beats it.
func TestRaceWinnerBeatsDefault(t *testing.T) {
	m := sparse.Poisson2D(8, 8)
	d, err := Race(context.Background(), testMachine(), m, cgJacobi(), Options{
		Budget: 500 * time.Millisecond,
		Solves: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Races) == 0 {
		t.Fatal("no candidate raced")
	}
	if d.Races[0].Candidate != d.Default {
		t.Fatalf("first race %v is not the default %v", d.Races[0].Candidate, d.Default)
	}
	if !d.Races[0].Converged {
		t.Fatalf("default candidate did not converge: %+v", d.Races[0])
	}
	if d.Speedup < 1 {
		t.Fatalf("speedup %.3f < 1: winner must tie or beat the fully-raced default", d.Speedup)
	}
	if d.WinnerSec <= 0 || d.DefaultSec <= 0 {
		t.Fatalf("degenerate timings: default %g winner %g", d.DefaultSec, d.WinnerSec)
	}
	if d.Pattern != m.PatternFingerprintString() {
		t.Fatalf("decision pattern %q, want %q", d.Pattern, m.PatternFingerprintString())
	}
}

// TestRaceRepairsSimPinnedConfig: the race runs every candidate on the
// native backend, so a config pinned to the simulator with a device trace,
// which native cannot prepare, still races, converges and writes no trace.
func TestRaceRepairsSimPinnedConfig(t *testing.T) {
	cfg := cgJacobi()
	trace := filepath.Join(t.TempDir(), "trace.json")
	cfg.Engine = &config.EngineConfig{Backend: "sim", Trace: trace}
	d, err := Race(context.Background(), testMachine(), sparse.Poisson2D(10, 10), cfg, Options{Budget: 2 * time.Second, Solves: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Races {
		if r.Error != "" || !r.Converged {
			t.Fatalf("candidate %v: error %q, converged %v", r.Candidate, r.Error, r.Converged)
		}
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Fatalf("the race wrote the pinned trace file (stat err %v)", err)
	}
}

// TestApplyPrecondNeverAliases: the returned config must not share the nested
// preconditioner struct with the input.
func TestApplyPrecondNeverAliases(t *testing.T) {
	cfg := cgJacobi()
	out := ApplyPrecond(cfg, "ilu0")
	if out.Solver.Preconditioner.Type != "ilu0" {
		t.Fatalf("precond not applied: %+v", out.Solver.Preconditioner)
	}
	if cfg.Solver.Preconditioner.Type != "jacobi" {
		t.Fatalf("input config mutated: %+v", cfg.Solver.Preconditioner)
	}
	if same := ApplyPrecond(cfg, ""); same.Solver.Preconditioner != cfg.Solver.Preconditioner {
		t.Fatalf("empty precond must keep the config unchanged")
	}
}

// TestCandidateString covers the compact rendering.
func TestCandidateString(t *testing.T) {
	if got := (Candidate{Strategy: "greedy", Precond: "ilu0"}).String(); got != "greedy/ilu0" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Candidate{}).String(); got != "contiguous" {
		t.Fatalf("zero String() = %q", got)
	}
}
