package core

import (
	"reflect"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/solver"
)

// abftCampaign is the pinned exchange-corruption campaign the two ABFT
// behaviour tests below replay: rate and budget high enough that the
// checksum-carrying SpMV sees corrupted halos mid-iteration.
func abftCampaign(seed int64) config.Config {
	cfg := backendProfiles()["cg-jacobi"]
	cfg.Solver.ABFT = true
	cfg.Recovery = &config.RecoveryConfig{Interval: 5, MaxRestarts: 25}
	cfg.Fault = &config.FaultConfig{
		Rate: 0.02, Seed: seed, MaxFaults: 8,
		Kinds: []string{"exchange-corrupt"},
	}
	return cfg
}

// TestABFTDetectsAndRecovers pins a seed whose corruptions land on the SpMV
// halo exchange: the checksum check must flag them inside the iteration and
// the checkpoint/restart policy must still deliver a verified answer. The
// detection sequence must be identical on both backends.
func TestABFTDetectsAndRecovers(t *testing.T) {
	m, b, _ := poissonProblem(12, 12)
	mc := smallMachine(8)
	cfg := abftCampaign(13)
	var prev []string
	for _, be := range []string{"sim", "native"} {
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		res, err := prep.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if len(res.Stats.ABFTDetected) == 0 {
			t.Fatalf("%s: checksum SpMV detected nothing under corruption: %+v", be, res.Stats)
		}
		if res.Stats.Restarts == 0 {
			t.Fatalf("%s: detection did not escalate to checkpoint restart", be)
		}
		if !res.Stats.Converged {
			t.Fatalf("%s: recovery failed to converge: %+v", be, res.Stats)
		}
		if rr := relResidual(t, m.N, func(x, y []float64) { m.MulVec(x, y) }, res.X, b); rr > cfg.Solver.Tolerance*100 {
			t.Fatalf("%s: recovered answer is wrong: residual %g", be, rr)
		}
		if prev != nil && !reflect.DeepEqual(prev, res.Stats.ABFTDetected) {
			t.Fatalf("detection sequence diverged across backends: %v vs %v", prev, res.Stats.ABFTDetected)
		}
		prev = res.Stats.ABFTDetected
	}
}

// TestABFTFinalVerifyRejects pins a seed whose corruption poisons the iterate
// after the last in-loop check: the scheduled final residual verification must
// refuse to report convergence and surface a typed breakdown instead of a
// silently wrong answer.
func TestABFTFinalVerifyRejects(t *testing.T) {
	m, b, _ := poissonProblem(12, 12)
	mc := smallMachine(8)
	cfg := abftCampaign(1)
	for _, be := range []string{"sim", "native"} {
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		_, err = prep.Solve(b)
		if err == nil {
			t.Fatalf("%s: corrupted solve was served as converged", be)
		}
		bd, ok := solver.IsBreakdown(err)
		if !ok {
			t.Fatalf("%s: rejection is not a typed breakdown: %v", be, err)
		}
		if bd.Reason != "abft-final-verify" {
			t.Fatalf("%s: breakdown reason %q, want abft-final-verify", be, bd.Reason)
		}
	}
}

// TestABFTMPIRCorrectionsVerifyOnce arms ABFT on the default hierarchy. Its
// correction solves stop at solver.CorrectionTol, where their float32 true
// residual can sit above any float32 final verify's threshold. The outer
// extended-precision residual is their verification, so they schedule none:
// every run converges, verified on the host, with zero detections on both
// backends while the SpMV checksums stay armed.
func TestABFTMPIRCorrectionsVerifyOnce(t *testing.T) {
	cfg := config.Default()
	cfg.Solver.ABFT = true
	for _, c := range mpirCases(t) {
		if c.name != "poisson3d:16" && c.name != "convdiff2d:64:10" {
			continue
		}
		for _, be := range []string{"sim", "native"} {
			r, rr := solveOnes(t, c.m, cfg, be)
			st := r.Stats
			if !st.Converged || st.Breakdown || rr > 10*cfg.MPIR.Tolerance {
				t.Errorf("%s/%s: converged=%v breakdown=%v (%s), host relres %.3g", c.name, be, st.Converged, st.Breakdown, st.BreakdownReason, rr)
			}
			if st.ABFTChecks == 0 || len(st.ABFTDetected) != 0 {
				t.Errorf("%s/%s: %d checks, detections %v; want checks and no detection", c.name, be, st.ABFTChecks, st.ABFTDetected)
			}
		}
	}
}
