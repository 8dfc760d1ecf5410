package core

import (
	"math"
	"reflect"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/graph"
	"ipusparse/internal/solver"
)

// backendProfiles is the cross-backend identity table: every solver shape the
// service exposes, solved on both backends. The contract is residual
// identity, not bit identity — each backend's answer must converge to the
// configured tolerance on the same system.
func backendProfiles() map[string]config.Config {
	return map[string]config.Config{
		"cg-jacobi": {
			Solver: config.SolverConfig{
				Type: "cg", MaxIterations: 600, Tolerance: 1e-8,
				Preconditioner: &config.SolverConfig{Type: "jacobi"},
			},
		},
		"cg-plain": {
			Solver: config.SolverConfig{Type: "cg", MaxIterations: 800, Tolerance: 1e-8},
		},
		"pbicgstab-ilu0": {
			Solver: config.SolverConfig{
				Type: "pbicgstab", MaxIterations: 400, Tolerance: 1e-8,
				Preconditioner: &config.SolverConfig{Type: "ilu0"},
			},
		},
		"gaussseidel": {
			Solver: config.SolverConfig{Type: "gaussseidel", MaxIterations: 4000, Tolerance: 1e-6},
		},
		"mpir-dw-pbicgstab": {
			Solver: config.SolverConfig{
				Type: "pbicgstab", MaxIterations: 10000, Tolerance: 1e-9,
				Preconditioner: &config.SolverConfig{Type: "ilu0"},
			},
			MPIR: &config.MPIRConfig{Extended: "dw", InnerIterations: 50, MaxOuter: 50, Tolerance: 1e-10},
		},
		"mpir-dp-cg": {
			Solver: config.SolverConfig{
				Type: "cg", MaxIterations: 10000, Tolerance: 1e-9,
				Preconditioner: &config.SolverConfig{Type: "jacobi"},
			},
			MPIR: &config.MPIRConfig{Extended: "dp", InnerIterations: 50, MaxOuter: 50, Tolerance: 1e-10},
		},
	}
}

// residual computes ||b - A*x||_2 / ||b||_2 in float64.
func relResidual(t *testing.T, n int, mul func([]float64, []float64), x, b []float64) float64 {
	t.Helper()
	ax := make([]float64, n)
	mul(x, ax)
	var rn, bn float64
	for i := range b {
		d := b[i] - ax[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn) / math.Sqrt(bn)
}

// TestBackendsResidualIdentity solves every profile on both backends and
// checks each converges to the profile's tolerance, with matching iteration
// behavior (both converged) and Info() reporting the right backend.
func TestBackendsResidualIdentity(t *testing.T) {
	m, b, _ := poissonProblem(14, 14)
	mc := smallMachine(8)
	for name, cfg := range backendProfiles() {
		tol := cfg.Solver.Tolerance
		if cfg.MPIR != nil {
			tol = cfg.MPIR.Tolerance
		}
		for _, be := range []string{"sim", "native"} {
			prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend(be))
			if err != nil {
				t.Fatalf("%s/%s: prepare: %v", name, be, err)
			}
			if got := prep.Info().Backend; got != be {
				t.Fatalf("%s/%s: Info().Backend = %q", name, be, got)
			}
			res, err := prep.Solve(b)
			if err != nil {
				t.Fatalf("%s/%s: solve: %v", name, be, err)
			}
			if !res.Stats.Converged {
				t.Fatalf("%s/%s: did not converge: %+v", name, be, res.Stats)
			}
			// Residual identity: verify in float64 against the true matrix,
			// with slack for the solver's own float32 residual estimate.
			if rr := relResidual(t, m.N, func(x, y []float64) { m.MulVec(x, y) }, res.X, b); rr > tol*100 {
				t.Fatalf("%s/%s: residual %g exceeds %g", name, be, rr, tol*100)
			}
		}
	}
}

// TestBackendWarmIdentity checks that warm native solves match cold native
// solves exactly (the warm-reset contract holds off the simulator too).
func TestBackendWarmIdentity(t *testing.T) {
	m, _, _ := poissonProblem(14, 14)
	b1, b2, _, _ := twoRHS(m)
	mc := smallMachine(8)
	cfg := backendProfiles()["cg-jacobi"]

	prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend("native"))
	if err != nil {
		t.Fatal(err)
	}
	warm1, err := prep.Solve(b1)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := prep.Solve(b2)
	if err != nil {
		t.Fatal(err)
	}
	again1, err := prep.Solve(b1)
	if err != nil {
		t.Fatal(err)
	}
	_ = warm2
	for i := range warm1.X {
		if warm1.X[i] != again1.X[i] {
			t.Fatalf("warm native solve not reproducible: x[%d] = %v then %v", i, warm1.X[i], again1.X[i])
		}
	}
	if warm1.Stats.Iterations != again1.Stats.Iterations {
		t.Fatalf("iterations differ warm-to-warm: %d vs %d", warm1.Stats.Iterations, again1.Stats.Iterations)
	}
}

// TestNativeAcceptsFaultCampaign: fault campaigns now prepare and run on the
// serving backend — the typed rejection is history.
func TestNativeAcceptsFaultCampaign(t *testing.T) {
	m, b, _ := poissonProblem(10, 10)
	cfg := backendProfiles()["cg-jacobi"]
	cfg.Fault = &config.FaultConfig{Rate: 0.001, Seed: 7, Kinds: []string{"bit-flip"}, MaxFaults: 2}
	cfg.Recovery = &config.RecoveryConfig{Interval: 5, MaxRestarts: 20}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("fault config invalid: %v", err)
	}
	prep, err := Prepare(smallMachine(4), m, cfg, PartitionContiguous, WithBackend("native"))
	if err != nil {
		t.Fatalf("native backend rejected a fault campaign: %v", err)
	}
	if _, err := prep.Solve(b); err != nil {
		if _, ok := solver.IsBreakdown(err); !ok {
			if _, ok := graph.AsStepError(err); !ok {
				t.Fatalf("faulted native solve failed untypedly: %v", err)
			}
		}
	}
}

// faultRunSig is one solve's campaign signature: the injected-event sequence
// plus the detection/recovery accounting that the replay-identity contract
// pins across backends and across warm re-solves.
type faultRunSig struct {
	events   []string
	detected []string
	iters    int
	restarts int
	reason   string
}

func campaignSig(t *testing.T, prep *Prepared, b []float64) faultRunSig {
	t.Helper()
	res, err := prep.Solve(b)
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	sig := faultRunSig{
		detected: res.Stats.ABFTDetected,
		iters:    res.Stats.Iterations,
		restarts: res.Stats.Restarts,
		reason:   res.Stats.BreakdownReason,
	}
	for _, ev := range res.Faults {
		sig.events = append(sig.events, ev.String())
	}
	return sig
}

// TestFaultCampaignReplayIdentity is the cross-backend table test: the same
// seeded bit-flip/exchange-corrupt campaign against the same prepared program
// must produce the identical event sequence, ABFT detection sequence and
// recovery accounting on the simulator and the native backend — and a warm
// re-solve must replay it bit-identically on both.
func TestFaultCampaignReplayIdentity(t *testing.T) {
	m, b, _ := poissonProblem(12, 12)
	mc := smallMachine(8)
	cfg := backendProfiles()["cg-jacobi"]
	cfg.Solver.ABFT = true
	cfg.Recovery = &config.RecoveryConfig{Interval: 5, MaxRestarts: 25}
	cfg.Fault = &config.FaultConfig{
		Rate: 0.002, Seed: 11, MaxFaults: 4,
		Kinds: []string{"bit-flip", "exchange-corrupt"},
	}
	sigs := make(map[string]faultRunSig)
	for _, be := range []string{"sim", "native"} {
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		cold := campaignSig(t, prep, b)
		warm := campaignSig(t, prep, b)
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%s: warm replay diverged:\ncold %+v\nwarm %+v", be, cold, warm)
		}
		sigs[be] = cold
	}
	if len(sigs["sim"].events) == 0 {
		t.Fatal("campaign injected nothing; the table test is vacuous")
	}
	if !reflect.DeepEqual(sigs["sim"], sigs["native"]) {
		t.Fatalf("campaign diverged across backends:\nsim    %+v\nnative %+v", sigs["sim"], sigs["native"])
	}
}

// TestSolveIntoFaultAccounting pins the per-solve campaign accounting of
// consecutive warm SolveInto calls: the injector re-arms before every run, so
// a right-hand side solved after a different one replays the campaign exactly
// as a standalone solve of it would — bit-identically.
func TestSolveIntoFaultAccounting(t *testing.T) {
	m, _, _ := poissonProblem(12, 12)
	b1, b2, _, _ := twoRHS(m)
	mc := smallMachine(8)
	cfg := backendProfiles()["cg-jacobi"]
	cfg.Recovery = &config.RecoveryConfig{Interval: 5, MaxRestarts: 25}
	cfg.Fault = &config.FaultConfig{
		Rate: 0.002, Seed: 11, MaxFaults: 4,
		Kinds: []string{"bit-flip", "exchange-corrupt"},
	}
	for _, be := range []string{"sim", "native"} {
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		var xs [3][]float64
		var iters [3]int
		for k, b := range [][]float64{b1, b2, b1} {
			xs[k] = make([]float64, m.N)
			st, err := prep.SolveInto(xs[k], b)
			if err != nil {
				t.Fatalf("%s: solve %d: %v", be, k, err)
			}
			iters[k] = st.Iterations
		}
		single1, err := prep.Solve(b1)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if len(single1.Faults) == 0 {
			t.Fatalf("%s: campaign injected nothing; the accounting test is vacuous", be)
		}
		for i := range single1.X {
			// Solves 0 and 2 see the same re-armed campaign as the standalone
			// solve; if the campaign ran on across solves they would diverge
			// from it (and from each other).
			if xs[0][i] != single1.X[i] || xs[2][i] != single1.X[i] {
				t.Fatalf("%s: campaign accounting is not per-solve (diverges at %d)", be, i)
			}
		}
		if iters[0] != single1.Stats.Iterations || iters[2] != single1.Stats.Iterations {
			t.Fatalf("%s: iteration counts %d/%d vs standalone %d",
				be, iters[0], iters[2], single1.Stats.Iterations)
		}
	}
}

// TestABFTNoSilentEscapes is the in-process SDC campaign: across seeds, every
// corrupted native solve must end recovered-and-verified, reported
// non-converged, or rejected with a typed error — never converged with a bad
// answer (checked against a float64 host oracle, independent of every device
// buffer a fault could poison).
func TestABFTNoSilentEscapes(t *testing.T) {
	m, b, _ := poissonProblem(12, 12)
	mc := smallMachine(8)
	base := backendProfiles()["cg-jacobi"]
	base.Solver.ABFT = true
	base.Recovery = &config.RecoveryConfig{Interval: 5, MaxRestarts: 25}
	tol := base.Solver.Tolerance
	injected, detections := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		cfg := base
		cfg.Fault = &config.FaultConfig{
			Rate: 0.004, Seed: seed, MaxFaults: 3,
			Kinds: []string{"bit-flip", "exchange-corrupt"},
		}
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend("native"))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := prep.Solve(b)
		if err != nil {
			if _, ok := solver.IsBreakdown(err); ok {
				continue // typed rejection: never served
			}
			if _, ok := graph.AsStepError(err); ok {
				continue // engine-surfaced fault: never served
			}
			t.Fatalf("seed %d: untyped failure: %v", seed, err)
		}
		injected += len(res.Faults)
		detections += len(res.Stats.ABFTDetected)
		if !res.Stats.Converged {
			continue // honestly reported non-convergence
		}
		if rr := relResidual(t, m.N, func(x, y []float64) { m.MulVec(x, y) }, res.X, b); rr > tol*100 {
			t.Fatalf("seed %d: SILENT ESCAPE: converged with residual %g (tol %g), faults %v",
				seed, rr, tol, res.Faults)
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected across any seed; the campaign is vacuous")
	}
	t.Logf("campaign: %d faults injected, %d ABFT detections", injected, detections)
}

// TestNativeRejectsTraceAndPerCallBackend covers the other typed rejections:
// device tracing needs the simulator, and the backend cannot change per call.
func TestNativeRejectsTraceAndPerCallBackend(t *testing.T) {
	m, b, _ := poissonProblem(10, 10)
	cfg := backendProfiles()["cg-jacobi"]
	prep, err := Prepare(smallMachine(4), m, cfg, PartitionContiguous, WithBackend("native"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Solve(b, WithTrace(discardWriter{})); !config.IsUnsupported(err) {
		t.Fatalf("trace on native: got %v, want UnsupportedError", err)
	}
	if _, err := prep.Solve(b, WithBackend("sim")); err == nil {
		t.Fatal("per-call WithBackend accepted")
	}
	if _, err := prep.Solve(b); err != nil {
		t.Fatalf("pipeline unusable after rejected options: %v", err)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestUnknownBackendName rejects a bad engine.backend value at both layers.
func TestUnknownBackendName(t *testing.T) {
	m, _, _ := poissonProblem(8, 8)
	cfg := backendProfiles()["cg-plain"]
	if _, err := Prepare(smallMachine(4), m, cfg, PartitionContiguous, WithBackend("gpu")); err == nil {
		t.Fatal("unknown backend name accepted")
	}
	cfg.Engine = &config.EngineConfig{Backend: "gpu"}
	if err := cfg.Validate(); err == nil {
		t.Fatal("config validation accepted engine.backend=gpu")
	}
}

// TestSolveIntoMatchesSolve checks the lean path returns the same solution
// and stats as the full path.
func TestSolveIntoMatchesSolve(t *testing.T) {
	m, b, _ := poissonProblem(12, 12)
	mc := smallMachine(8)
	cfg := backendProfiles()["cg-jacobi"]
	for _, be := range []string{"sim", "native"} {
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		full, err := prep.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		x := make([]float64, m.N)
		st, err := prep.SolveInto(x, b)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		for i := range x {
			if x[i] != full.X[i] {
				t.Fatalf("%s: SolveInto diverges at %d: %v vs %v", be, i, x[i], full.X[i])
			}
		}
		if !st.Converged || st.Iterations != full.Stats.Iterations || st.RelRes != full.Stats.RelRes {
			t.Fatalf("%s: lean stats %+v vs %+v", be, st, full.Stats)
		}
		if st.Solver == "" {
			t.Fatalf("%s: lean stats missing solver name", be)
		}
	}
}

// TestNativeCodeletSets is the "is it really native?" guard: a served
// hierarchy must not run a compute set codelet by codelet inside its
// iteration loop. cg+jacobi has no codelet-only set at all; for the service
// default the count must not depend on how long the solve iterates, so it is
// compared across two tolerances.
func TestNativeCodeletSets(t *testing.T) {
	m, b, _ := poissonProblem(14, 14)
	mc := smallMachine(8)
	solve := func(cfg config.Config) SolveStats {
		t.Helper()
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend("native"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := prep.SolveInto(make([]float64, m.N), b)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("%s did not converge: %+v", st.Solver, st)
		}
		return st
	}
	if st := solve(backendProfiles()["cg-jacobi"]); st.CodeletSets != 0 {
		t.Errorf("cg+jacobi ran %d compute sets as codelets, want 0", st.CodeletSets)
	}
	withTol := func(tol float64) config.Config {
		cfg := config.Default()
		cfg.Solver.Tolerance, cfg.MPIR.Tolerance = tol, tol
		return cfg
	}
	loose, tight := solve(withTol(1e-6)), solve(withTol(1e-9))
	if tight.Iterations <= loose.Iterations {
		t.Fatalf("tolerance 1e-9 took %d iterations, 1e-6 took %d: the comparison needs a longer solve",
			tight.Iterations, loose.Iterations)
	}
	if loose.CodeletSets != tight.CodeletSets {
		t.Errorf("%s: %d codelet sets over %d iterations but %d over %d: a kernel inside the loop falls back",
			tight.Solver, loose.CodeletSets, loose.Iterations, tight.CodeletSets, tight.Iterations)
	}
	if sim, err := Prepare(mc, m, backendProfiles()["cg-jacobi"], PartitionContiguous, WithBackend("sim")); err != nil {
		t.Fatal(err)
	} else if st, err := sim.SolveInto(make([]float64, m.N), b); err != nil || st.CodeletSets != 0 {
		t.Errorf("sim: CodeletSets = %d, err = %v; codelets are its execution model, want 0", st.CodeletSets, err)
	}
}

// TestNativeFusedSets is the "did it fuse?" guard: inside the iteration loop
// of the two served Krylov solvers the fused kernels must cover exactly the
// compute sets the fusion pass is built for — 7 per cg+jacobi iteration
// (q=Ap with p·q; x, r, z with r·z and r·r), 8 per pbicgstab iteration (v=Ay
// with r0·v; t=Az with t·s and t·t; x, r with r·r) — measured as the growth
// between a short and a long solve. The simulator fuses nothing, and neither
// does a native run with an injector armed: it executes the unfused stream.
func TestNativeFusedSets(t *testing.T) {
	m, b, _ := poissonProblem(14, 14)
	mc := smallMachine(8)
	solve := func(cfg config.Config, be string) SolveStats {
		t.Helper()
		prep, err := Prepare(mc, m, cfg, PartitionContiguous, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		st, err := prep.SolveInto(make([]float64, m.N), b)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, tc := range []struct {
		profile string
		perIter uint64
	}{{"cg-jacobi", 7}, {"pbicgstab-ilu0", 8}} {
		withTol := func(tol float64) config.Config {
			cfg := backendProfiles()[tc.profile]
			cfg.Solver.Tolerance = tol
			return cfg
		}
		loose, tight := solve(withTol(1e-3), "native"), solve(withTol(1e-8), "native")
		iters := uint64(tight.Iterations - loose.Iterations)
		if tight.Iterations <= loose.Iterations {
			t.Fatalf("%s: %d iterations at 1e-8, %d at 1e-3: the comparison needs a longer solve",
				tc.profile, tight.Iterations, loose.Iterations)
		}
		if grew := tight.FusedSets - loose.FusedSets; grew != tc.perIter*iters {
			t.Errorf("%s: FusedSets grew by %d over %d iterations, want %d per iteration",
				tight.Solver, grew, iters, tc.perIter)
		}
		if st := solve(withTol(1e-8), "sim"); st.FusedSets != 0 {
			t.Errorf("%s on sim: FusedSets = %d, want 0", st.Solver, st.FusedSets)
		}
		armed := withTol(1e-8)
		// A campaign that never fires still arms the injector.
		armed.Fault = &config.FaultConfig{Rate: 1e-300, Seed: 1, Kinds: []string{"bit-flip"}}
		if st := solve(armed, "native"); st.FusedSets != 0 || st.Iterations != tight.Iterations {
			t.Errorf("%s with an injector armed: FusedSets = %d, %d iterations; want 0 and the fault-free %d",
				st.Solver, st.FusedSets, st.Iterations, tight.Iterations)
		}
	}
}
