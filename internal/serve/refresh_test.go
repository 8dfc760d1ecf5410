package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/sparse"
)

// drift returns a values-only variant of m (identical sparsity pattern, SPD
// preserved: the diagonal only grows and off-diagonals only shrink).
func drift(m *sparse.Matrix, step float64) *sparse.Matrix {
	out := m.Clone()
	for i := range out.Diag {
		out.Diag[i] += 0.25 * step * float64(1+i%5)
	}
	for k := range out.Vals {
		out.Vals[k] *= 0.95
	}
	return out
}

// TestUpdateSystemRefreshesInPlace: a values-only update keeps the system's
// ID stable while bumping its values generation, refreshes the cached
// replicas in place (no new cold prepare), and subsequent solves match a cold
// solve of the new matrix bit for bit.
func TestUpdateSystemRefreshesInPlace(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()

	m1 := sparse.Poisson2D(8, 8)
	m2 := drift(m1, 1)
	info, err := s.Register(context.Background(), m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), info.ID, onesRHS(m1)); err != nil {
		t.Fatal(err)
	}
	missesBefore := s.Stats().CacheMisses

	up, err := s.UpdateSystem(context.Background(), info.ID, m2)
	if err != nil {
		t.Fatal(err)
	}
	if up.ID != info.ID || up.Generation != info.Generation+1 {
		t.Fatalf("bad update info %+v (registered %+v)", up, info)
	}
	if up.Refreshed == 0 {
		t.Fatalf("update did not refresh any cached replica: %+v", up)
	}
	if st := s.Stats(); st.CacheMisses != missesBefore {
		t.Fatalf("update cold-prepared (misses %d → %d), want in-place refresh",
			missesBefore, st.CacheMisses)
	}
	if st := s.Stats(); st.Refreshed != uint64(up.Refreshed) {
		t.Fatalf("stats.Refreshed = %d, want %d", st.Refreshed, up.Refreshed)
	}

	b := onesRHS(m2)
	res, err := s.Solve(context.Background(), up.ID, b)
	if err != nil {
		t.Fatal(err)
	}
	// Cold oracle on the service's backend (cross-backend agreement is
	// residual-level, not bit-level).
	cold, err := core.Solve(opts.Machine, m2, b, opts.Solver, core.PartitionContiguous, core.WithBackend(info.Backend))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != cold.Stats.Iterations || res.Stats.RelRes != cold.Stats.RelRes {
		t.Fatalf("refreshed solve differs from cold: %d/%g vs %d/%g",
			res.Stats.Iterations, res.Stats.RelRes, cold.Stats.Iterations, cold.Stats.RelRes)
	}
	for i := range res.X {
		if res.X[i] != cold.X[i] {
			t.Fatalf("x[%d] differs from cold oracle: %g vs %g", i, res.X[i], cold.X[i])
		}
	}

	// Updating with the already-registered values is an idempotent no-op: no
	// refresh, and the generation does not advance.
	again, err := s.UpdateSystem(context.Background(), up.ID, m2.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != up.ID || again.Refreshed != 0 || again.Generation != up.Generation {
		t.Fatalf("idempotent update: %+v", again)
	}
}

// TestRegisterAdoptsPatternMatch: registering a matrix whose pattern matches
// a cached pool takes the refresh path — no second cold prepare — while both
// registrations stay solvable.
func TestRegisterAdoptsPatternMatch(t *testing.T) {
	s := New(testOptions())
	defer s.Close()

	m1 := sparse.Poisson2D(8, 8)
	m2 := drift(m1, 2)
	i1, err := s.Register(context.Background(), m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	missesBefore := s.Stats().CacheMisses

	i2, err := s.Register(context.Background(), m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i1.ID == i2.ID {
		t.Fatal("distinct value sets registered under one ID")
	}
	st := s.Stats()
	if st.CacheMisses != missesBefore {
		t.Fatalf("pattern-matching register cold-prepared (misses %d → %d)",
			missesBefore, st.CacheMisses)
	}
	if st.Refreshed == 0 {
		t.Fatal("pattern-matching register refreshed no replica")
	}

	// The new registration solves correctly against its own values...
	res, err := s.Solve(context.Background(), i2.ID, onesRHS(m2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("adopted pipeline did not converge")
	}
	// ...and the first system is still registered: its pool was adopted, so
	// the next solve re-prepares, but the answer must verify against m1.
	res, err = s.Solve(context.Background(), i1.ID, onesRHS(m1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("original system no longer converges")
	}
}

// TestUpdateSystemPatternMismatch: structural changes are rejected with the
// typed error (409 over HTTP) and leave the registration untouched.
func TestUpdateSystemPatternMismatch(t *testing.T) {
	s := New(testOptions())
	defer s.Close()

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.UpdateSystem(context.Background(), info.ID, sparse.Poisson2D(8, 9))
	if !errors.Is(err, core.ErrPatternMismatch) {
		t.Fatalf("got %v, want ErrPatternMismatch", err)
	}
	if got := s.Stats().RefreshMismatch; got != 1 {
		t.Fatalf("stats.RefreshMismatch = %d, want 1", got)
	}
	if _, err := s.Solve(context.Background(), info.ID, onesRHS(m)); err != nil {
		t.Fatalf("registration damaged by rejected update: %v", err)
	}
}

// TestUpdateSystemDisabled: serve.refresh.enabled=false rejects updates with
// the typed error and registers without adoption.
func TestUpdateSystemDisabled(t *testing.T) {
	opts := testOptions()
	opts.DisableRefresh = true
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateSystem(context.Background(), info.ID, drift(m, 1)); !errors.Is(err, ErrRefreshDisabled) {
		t.Fatalf("got %v, want ErrRefreshDisabled", err)
	}
	missesBefore := s.Stats().CacheMisses
	if _, err := s.Register(context.Background(), drift(m, 2), nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheMisses == missesBefore || st.Refreshed != 0 {
		t.Fatalf("disabled refresh still adopted: %+v", st)
	}
}

// TestHTTPUpdate drives PATCH /v1/systems/{id} end to end: a diag/vals body,
// the 409 pattern-conflict mapping, and the typed 400 for a config override
// requesting simulator-only features on a native system.
func TestHTTPUpdate(t *testing.T) {
	s := New(testOptions())
	defer s.Close()

	m1 := sparse2dForTest()
	info, err := s.Register(context.Background(), m1, nil)
	if err != nil {
		t.Fatal(err)
	}

	m2 := drift(m1, 1)
	patch := func(id, body string) (int, string) {
		w := doReq(t, s, http.MethodPatch, "/v1/systems/"+id, body)
		return w.Code, w.Body.String()
	}
	body, _ := json.Marshal(UpdateRequest{Diag: m2.Diag, Vals: m2.Vals})
	code, out := patch(info.ID, string(body))
	if code != http.StatusOK {
		t.Fatalf("update: %d %s", code, out)
	}
	var up UpdateInfo
	if err := json.Unmarshal([]byte(out), &up); err != nil {
		t.Fatal(err)
	}
	if up.ID != info.ID || up.Generation != 2 || up.Refreshed == 0 {
		t.Fatalf("bad update response %+v", up)
	}

	// A spec-form update whose structure differs → 409 Conflict.
	code, out = patch(up.ID, `{"gen":"poisson2d:6"}`)
	if code != http.StatusConflict {
		t.Fatalf("pattern conflict: %d %s, want 409", code, out)
	}
	if !strings.Contains(out, "pattern") {
		t.Fatalf("409 body does not name the pattern conflict: %s", out)
	}

	// Unknown target → 404.
	code, out = patch("m0000000000000000", `{"gen":"poisson2d:7"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown target: %d %s, want 404", code, out)
	}

	// A config override requesting device tracing (a simulator-only feature)
	// on this native system → the same typed 400 body registration produces.
	cfg := testOptions().Solver
	cfg.Engine = &config.EngineConfig{Trace: "trace.json"}
	body, _ = json.Marshal(UpdateRequest{Diag: m2.Diag, Config: &cfg})
	code, out = patch(up.ID, string(body))
	if code != http.StatusBadRequest {
		t.Fatalf("sim-only config: %d %s, want 400", code, out)
	}
	var typed struct {
		Backend     string `json:"backend"`
		Unsupported string `json:"unsupported"`
	}
	if err := json.Unmarshal([]byte(out), &typed); err != nil || typed.Unsupported == "" {
		t.Fatalf("400 body is not the typed capability error: %s", out)
	}

	// Values-only means values only: a config override that changes the
	// solver hierarchy is rejected even when the backend could honor it.
	other := testOptions().Solver
	other.Solver.Preconditioner = &config.SolverConfig{Type: "jacobi"}
	body, _ = json.Marshal(UpdateRequest{Diag: m2.Diag, Config: &other})
	code, out = patch(up.ID, string(body))
	if code != http.StatusBadRequest || !strings.Contains(out, "re-registration") {
		t.Fatalf("config change: %d %s, want 400 naming re-registration", code, out)
	}
}

// TestUpdateWALSupersede: a crash-safe service replays an updated system as
// exactly one registration — the new values, not both generations.
func TestUpdateWALSupersede(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.StateDir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	m1 := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := drift(m1, 3)
	up, err := s.UpdateSystem(context.Background(), info.ID, m2)
	if err != nil {
		t.Fatal(err)
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
	if len(systems) != 1 || systems[0].ID != up.ID {
		t.Fatalf("replayed systems %+v, want exactly %s", systems, up.ID)
	}
	res, err := s2.Solve(context.Background(), up.ID, onesRHS(m2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("replayed updated system did not converge")
	}
}
