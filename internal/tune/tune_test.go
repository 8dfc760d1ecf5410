package tune

import (
	"context"
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
	if def.Strategy != "contiguous" || def.Backend != "native" || def.Precond != "jacobi" {
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

// TestCandidatesRespectSimPinnedDefault: a config pinning the simulator
// backend races sim as the default but still enumerates native candidates —
// the misconfiguration the tuner exists to repair.
func TestCandidatesRespectSimPinnedDefault(t *testing.T) {
	cfg := cgJacobi()
	cfg.Engine = &config.EngineConfig{Backend: "sim"}
	cands := Candidates(cfg, Candidate{})
	if cands[0].Backend != "sim" {
		t.Fatalf("default backend %q, want the config's sim", cands[0].Backend)
	}
	native := false
	for _, c := range cands[1:] {
		if c.Backend == "native" {
			native = true
		}
	}
	if !native {
		t.Fatalf("no native candidate enumerated against a sim-pinned config: %v", cands)
	}
}

// TestCandidatesRaceOnlyWhatCanWin: every challenger runs native, so a native
// default races at most 3 candidates (the default, the other partition
// strategy, the preconditioner swap) and the simulator enters the field only
// as a sim-pinned default, followed directly by its native repairs.
func TestCandidatesRaceOnlyWhatCanWin(t *testing.T) {
	native := Candidates(cgJacobi(), Candidate{})
	if len(native) > 3 {
		t.Fatalf("native default races %d candidates, want <= 3: %v", len(native), native)
	}
	for _, c := range native {
		if c.Backend == "sim" {
			t.Fatalf("sim challenger %v in a native default's field %v", c, native)
		}
	}

	cfg := cgJacobi()
	cfg.Engine = &config.EngineConfig{Backend: "sim"}
	sim := Candidates(cfg, Candidate{})
	if len(sim) < 2 || len(sim) > 4 {
		t.Fatalf("sim default races %d candidates, want 2..4: %v", len(sim), sim)
	}
	if sim[0].Backend != "sim" || sim[1].Backend != "native" {
		t.Fatalf("sim default field %v: want sim first, native second", sim)
	}
	for _, c := range sim[1:] {
		if c.Backend == "sim" {
			t.Fatalf("sim challenger %v in a sim default's field %v", c, sim)
		}
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

// TestRaceRepairsSimPinnedConfig: against a config pinned to the simulator,
// the race must discover the native backend (several times faster on the same
// answer) as the winner.
func TestRaceRepairsSimPinnedConfig(t *testing.T) {
	cfg := cgJacobi()
	cfg.Engine = &config.EngineConfig{Backend: "sim"}
	m := sparse.Poisson2D(10, 10)
	d, err := Race(context.Background(), testMachine(), m, cfg, Options{Budget: 2 * time.Second, Solves: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Winner.Backend != "native" {
		t.Fatalf("winner backend %q, want native (speedup %.2f, races %v)",
			d.Winner.Backend, d.Speedup, d.Races)
	}
	if d.Speedup <= 1 {
		t.Fatalf("sim-pinned repair speedup %.3f, want > 1", d.Speedup)
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

// TestCandidateStringAndTuned covers the compact rendering and the core
// override conversion.
func TestCandidateStringAndTuned(t *testing.T) {
	c := Candidate{Strategy: "greedy", Backend: "native", Precond: "ilu0"}
	if got := c.String(); got != "greedy/native/ilu0" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Candidate{}).String(); got != "contiguous/native" {
		t.Fatalf("zero String() = %q", got)
	}
	tu := c.Tuned()
	if string(tu.Strategy) != "greedy" || tu.Backend != "native" {
		t.Fatalf("Tuned() = %+v", tu)
	}
}
