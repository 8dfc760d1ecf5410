package main

import (
	"testing"
	"time"
)

// TestQuick runs the in-process parts of the benchmark for real, in a few
// seconds and without spawning a daemon: one sim-cold pass with its checks,
// ladder rungs R0-R3 with their probes, the schedule and the oracle. It keeps
// `go vet ./... && go test ./...` in this directory honest about whether the
// benchmark still compiles against the repo's layers and still measures them.
func TestQuick(t *testing.T) {
	c := &runCtx{root: "..", seed: 1, ladderReps: 5, rungBudget: 200 * time.Millisecond, nproc: 2, tr: newTracer("quick")}

	t.Run("sim-cold", func(t *testing.T) {
		cases, err := c.simInputs()
		if err != nil {
			t.Fatal(err)
		}
		first, err := simPass(cases)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSimPass(cases, first, nil); err != nil {
			t.Fatal(err)
		}
		facts := make([]simFacts, len(first))
		for i, r := range first {
			facts[i] = simFacts{r.Stats.Iterations, r.Machine}
			if r.Machine.TotalCycles == 0 {
				t.Errorf("%s x %s simulated no cycles", cases[i].Gen, cases[i].CfgFile)
			}
		}
		// A second cold pass of the first entry must reproduce every
		// simulated statistic.
		again, err := simPass(cases[:1])
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSimPass(cases[:1], again, facts[:1]); err != nil {
			t.Fatal(err)
		}
		facts[0].Machine.TotalCycles++
		if err := checkSimPass(cases[:1], again, facts[:1]); err == nil {
			t.Error("a changed cycle count went unnoticed")
		}
	})

	t.Run("ladder R0-R3", func(t *testing.T) {
		cfg, err := c.rawConfig("cg-jacobi.json")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := genSystem("poisson3d:8", cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := c.serveOptions("serve.json")
		if err != nil {
			t.Fatal(err)
		}
		res := newResult(wServeCG)
		in, err := c.ladderSetup(res, sys, onesRHS(sys.M), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		if err := c.interleave(in.lanes); err != nil {
			t.Fatal(err)
		}
		if err := in.report(res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("ladder answers failed their checks: %v", res.Failures)
		}
		if in.stats.Solver != "cg+jacobi" || in.stats.Iterations == 0 {
			t.Errorf("ran %q for %d iterations, want cg+jacobi", in.stats.Solver, in.stats.Iterations)
		}
		for _, name := range []string{
			"backend.exec_ms", "core.solveinto_ms", "core.solve_ms", "serve.solve_ms",
			"core.prepare_ms", "core.prepare_sim_ms", "core.updatevalues_ms", "serve.register_ms", "serve.update_ms",
			"serve.batch_over_single", "backend.iter_us", "backend.iter_over_mulvec", "backend.sim_over_native",
			"backend.flops_per_iter_computed", "sparse.mulvec_us", "partition.greedy_ms", "halo.build_ms", "halo.halo_cells",
		} {
			if v, ok := res.PerLayer[name]; !ok || !(v.Value > 0) {
				t.Errorf("%s = %+v, want a positive measurement", name, v)
			}
		}
		if v := res.PerLayer["core.solveinto_allocs_per_op"]; v.Value > res.PerLayer["core.solve_allocs_per_op"].Value {
			t.Errorf("the lean path allocates more (%g) than the full one (%g)", v.Value, res.PerLayer["core.solve_allocs_per_op"].Value)
		}
		// One span per call of R0..R3, each pointing at the next-taller rung.
		perRung := map[int]int{}
		for _, s := range c.tr.spans {
			perRung[s.Track]++
			if want := rungSpanName(s.Track+1, s.Rep); s.Parent != want {
				t.Fatalf("span %s has parent %q, want %q", s.Name, s.Parent, want)
			}
			if s.EndNs < s.StartNs {
				t.Fatalf("span %s ends before it starts", s.Name)
			}
		}
		for rung := 0; rung <= 3; rung++ {
			if perRung[rung] < 3 || perRung[rung] != perRung[0] {
				t.Errorf("rung %d recorded %d spans, rung 0 %d", rung, perRung[rung], perRung[0])
			}
		}
	})

	t.Run("schedule and oracle", func(t *testing.T) {
		plan, err := c.mixPlanFor(2*time.Second, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Systems) != len(staticSpecs)+len(streamSpecs) || len(plan.Ops) < 2*clusterRate {
			t.Fatalf("%d systems, %d ops", len(plan.Systems), len(plan.Ops))
		}
		// The oracle accepts the true solution and rejects a perturbed one.
		s := plan.Systems[0]
		x := make([]float64, s.M.N)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		b := make([]float64, s.M.N)
		s.M.MulVec(x, b)
		scratch := make([]float64, s.M.N)
		if err := checkFull(s.M, b, &solveAnswer{Converged: true, X: x}, scratch); err != nil {
			t.Errorf("the exact solution was rejected: %v", err)
		}
		x[0] += 0.1
		if err := checkFull(s.M, b, &solveAnswer{Converged: true, X: x}, scratch); err == nil {
			t.Error("a perturbed solution was accepted")
		}
	})
}
