package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipusparse/internal/sparse"
)

// tuneTestOptions arms the autotuner over the standard test service with a
// tight race budget so tests stay fast.
func tuneTestOptions() Options {
	opts := testOptions()
	opts.Tune = true
	opts.TuneBudget = 300 * time.Millisecond
	opts.TuneSolves = 1
	return opts
}

// TestTuneRegistrationRaces requires a registration under Tune to race
// candidates, serve the winner, and expose the decision: the default is
// always raced in full, so the winner beats or ties it by construction.
func TestTuneRegistrationRaces(t *testing.T) {
	s := New(tuneTestOptions())
	defer s.Close()

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Tuned {
		t.Fatalf("registration under Tune reports tuned=false: %+v", info)
	}
	d, err := s.TuneDecision(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || len(d.Races) == 0 {
		t.Fatalf("no race decision cached: %+v", d)
	}
	if d.Speedup < 1 {
		t.Fatalf("winner speedup %.3f < 1: the default must always be fully raced", d.Speedup)
	}
	if !d.Races[0].Converged || d.Races[0].Error != "" {
		t.Fatalf("default candidate was not fully raced: %+v", d.Races[0])
	}
	if st := s.Stats(); st.Tuned == 0 {
		t.Fatalf("stats report no races after a tuned registration: %+v", st)
	}

	res, err := s.Solve(context.Background(), info.ID, onesRHS(m))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if d := v - 1; d > 1e-6 || d < -1e-6 {
			t.Fatalf("tuned solve x[%d] = %g, want 1", i, v)
		}
	}
}

// legacyDecision is a race decision in the JSON shape older releases wrote:
// candidates carry an engine "parallelism" and races a cost-model
// "predictedSeconds". Both fields are gone; a replayed record must still
// serve its recorded winner.
const legacyDecision = `{"pattern":"p0","default":{"strategy":"contiguous","backend":"native","precond":"ilu0"},` +
	`"winner":{"strategy":"greedy","backend":"native","precond":"jacobi"},` +
	`"defaultSeconds":0.002,"winnerSeconds":0.001,"speedup":2,"races":[` +
	`{"strategy":"contiguous","backend":"native","precond":"ilu0","seconds":0.002,"prepareSeconds":0.01,"iterations":9,"converged":true,"predictedSeconds":0.0004},` +
	`{"strategy":"contiguous","backend":"sim","parallelism":1,"precond":"ilu0","seconds":0.009,"prepareSeconds":0.02,"iterations":9,"converged":true,"predictedSeconds":0.003},` +
	`{"strategy":"greedy","backend":"native","precond":"jacobi","seconds":0.001,"prepareSeconds":0.01,"iterations":30,"converged":true,"predictedSeconds":0.0004}],` +
	`"budgetSeconds":0.3,"elapsedSeconds":0.05,"calibratedAt":"2025-01-01T00:00:00Z"}`

// TestTuneDecisionSurvivesRestart is the WAL-replay contract: a killed
// process's replacement recovers the race decision from the registry and
// serves the tuned configuration WITHOUT racing again — including a decision
// in the legacy JSON shape appended to the WAL.
func TestTuneDecisionSurvivesRestart(t *testing.T) {
	opts := tuneTestOptions()
	opts.StateDir = t.TempDir()

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.TuneDecision(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if before == nil {
		t.Fatal("no decision before the crash")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	legacyM := sparse.Poisson2D(6, 6)
	rec, err := json.Marshal(NewRegistrationRecord(legacyM, nil))
	if err != nil {
		t.Fatal(err)
	}
	line := string(rec[:len(rec)-1]) + `,"tune":` + legacyDecision + "}\n"
	f, err := os.OpenFile(filepath.Join(opts.StateDir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	legacy, err := s2.lookup(legacyM.FingerprintString())
	if err != nil {
		t.Fatalf("legacy-shape record did not replay: %v", err)
	}
	if legacy.strategy != "greedy" || legacy.backend != "native" || legacy.cfg.Solver.Preconditioner.Type != "jacobi" {
		t.Fatalf("legacy decision serves %s/%s/%s, want its winner greedy/native/jacobi",
			legacy.strategy, legacy.backend, legacy.cfg.Solver.Preconditioner.Type)
	}
	if res, err := s2.Solve(context.Background(), legacy.id, onesRHS(legacyM)); err != nil || !res.Stats.Converged {
		t.Fatalf("legacy tuned solve did not converge: %v", err)
	}
	after, err := s2.TuneDecision(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after == nil || len(after.Races) != len(before.Races) {
		t.Fatalf("restart lost the decision: before %+v, after %+v", before, after)
	}
	if after.Winner != before.Winner {
		t.Fatalf("restart changed the winner: %v -> %v", before.Winner, after.Winner)
	}
	if st := s2.Stats(); st.Tuned != 0 {
		t.Fatalf("restarted process raced %d times: the WAL decision must be reused", st.Tuned)
	}
	res, err := s2.Solve(context.Background(), info.ID, onesRHS(m))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if d := v - 1; d > 1e-6 || d < -1e-6 {
			t.Fatalf("recovered tuned solve x[%d] = %g, want 1", i, v)
		}
	}
}

// TestTuneDecisionSurvivesTornWALTail appends a half-written record — the
// footprint of kill -9 mid-append — after a tuned registration and requires
// recovery to keep the decision while dropping the torn tail.
func TestTuneDecisionSurvivesTornWALTail(t *testing.T) {
	opts := tuneTestOptions()
	opts.StateDir = t.TempDir()

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Register(context.Background(), sparse.Poisson2D(8, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(opts.StateDir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"m0123","tune":{"winner":{"ba`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("torn trailing record must be tolerated: %v", err)
	}
	defer s2.Close()
	d, err := s2.TuneDecision(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || len(d.Races) == 0 {
		t.Fatalf("torn tail lost the tune decision: %+v", d)
	}
}

// TestForceTuneCountsRetunes re-races an already tuned system and requires
// the retune counters to move while the system keeps serving.
func TestForceTuneCountsRetunes(t *testing.T) {
	s := New(tuneTestOptions())
	defer s.Close()

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.ForceTune(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d.Retunes != 1 {
		t.Fatalf("forced re-race reports %d retunes, want 1", d.Retunes)
	}
	st := s.Stats()
	if st.Retunes != 1 {
		t.Fatalf("stats report %d retunes, want 1", st.Retunes)
	}
	if st.Tuned < 2 {
		t.Fatalf("stats report %d races after register+force, want >= 2", st.Tuned)
	}
	res, err := s.Solve(context.Background(), info.ID, onesRHS(m))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("solve after forced retune did not converge")
	}
}

// TestForceTuneCancelledPublishesNothing: a re-race whose caller is already
// gone (a disconnected client, Close cancelling the retune loop) returns the
// context's error and leaves the system, the race counter and the WAL as they
// were.
func TestForceTuneCancelledPublishesNothing(t *testing.T) {
	opts := tuneTestOptions()
	opts.StateDir = t.TempDir()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	info, err := s.Register(context.Background(), sparse.Poisson2D(8, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	races := s.Stats().Tuned
	wal, err := os.Stat(filepath.Join(opts.StateDir, walName))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if d, err := s.ForceTune(ctx, info.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForceTune on a cancelled context = (%+v, %v), want context.Canceled", d, err)
	}
	after, err := s.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after != before || after.tune != before.tune || after.generation != before.generation {
		t.Fatalf("cancelled ForceTune published a successor: generation %d -> %d", before.generation, after.generation)
	}
	if got := s.Stats().Tuned; got != races {
		t.Fatalf("tune_races_total %d -> %d on a cancelled ForceTune", races, got)
	}
	st, err := os.Stat(filepath.Join(opts.StateDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != wal.Size() {
		t.Fatalf("cancelled ForceTune wrote the WAL: %d -> %d bytes", wal.Size(), st.Size())
	}
}

// TestGenerationMonotonicAcrossCrash pins the stable-ID refresh contract:
// values updates keep the system ID and increment its generation, and the
// counter survives kill -9 — the recovered process resumes from the last
// persisted generation, never reusing or rewinding one.
func TestGenerationMonotonicAcrossCrash(t *testing.T) {
	opts := testOptions()
	opts.StateDir = t.TempDir()

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 {
		t.Fatalf("fresh registration at generation %d, want 1", info.Generation)
	}
	for step := 1; step <= 2; step++ {
		mm := m.Clone()
		for i := range mm.Diag {
			mm.Diag[i] *= 1 + 0.01*float64(step)
		}
		up, err := s.UpdateSystem(context.Background(), info.ID, mm)
		if err != nil {
			t.Fatal(err)
		}
		if up.ID != info.ID {
			t.Fatalf("update step %d moved the ID %s -> %s", step, info.ID, up.ID)
		}
		if up.Generation != 1+step {
			t.Fatalf("update step %d at generation %d, want %d", step, up.Generation, 1+step)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	systems := s2.Systems()
	if len(systems) != 1 || systems[0].ID != info.ID {
		t.Fatalf("recovered %+v, want exactly %s", systems, info.ID)
	}
	if systems[0].Generation != 3 {
		t.Fatalf("recovered generation %d, want 3", systems[0].Generation)
	}
	mm := m.Clone()
	for i := range mm.Diag {
		mm.Diag[i] *= 1.05
	}
	up, err := s2.UpdateSystem(context.Background(), info.ID, mm)
	if err != nil {
		t.Fatal(err)
	}
	if up.ID != info.ID || up.Generation != 4 {
		t.Fatalf("post-crash update = %s gen %d, want %s gen 4", up.ID, up.Generation, info.ID)
	}
}
