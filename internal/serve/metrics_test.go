package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"ipusparse/internal/config"
)

// TestStatsJSONShape locks the /stats wire contract: the exact key set the
// JSON snapshot has always exposed must survive the move to telemetry-backed
// counters, and counters populated by a solve must be non-zero.
func TestStatsJSONShape(t *testing.T) {
	opts := testOptions()
	// Pinned to the simulator so cyclesPerSolve stays meaningful (native runs
	// no cycle model and always reports zero).
	opts.Solver.Engine = &config.EngineConfig{Backend: "sim"}
	s := New(opts)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	m := sparse2dForTest()
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.OnesRHS(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), info.ID, b); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"cacheHits", "cacheMisses", "evictions", "cacheSize",
		"queueDepth", "rejected", "solved",
		"p50Ms", "p99Ms", "cyclesPerSolve", "backend",
		"retries", "hedges", "hedgeWins", "panics",
		"quarantined", "rebuilt", "verified", "verifyFailed", "sdcEscapes",
		"breakerRejected", "breakerOpens", "breakersOpen",
		"registryWalErrors", "draining",
		"tuned", "retunes",
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if strings.Join(keys, ",") != strings.Join(sorted, ",") {
		t.Errorf("/stats keys drifted:\n got %v\nwant %v", keys, sorted)
	}
	for _, k := range []string{"solved", "verified", "p50Ms", "cyclesPerSolve"} {
		v, ok := got[k].(float64)
		if !ok || v <= 0 {
			t.Errorf("/stats %s = %v, want > 0 after a solve", k, got[k])
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after one registered system and one
// solve, asserting the exposition carries the key series of every layer: the
// serve solve-latency histogram, cache hit/miss counters, breaker-state
// gauge, and the core/engine/machine/solver series recorded through the
// shared registry.
func TestMetricsEndpoint(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	m := sparse2dForTest()
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.OnesRHS(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), info.ID, b); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, frag := range []string{
		"# TYPE serve_solve_latency_seconds histogram",
		"serve_solve_latency_seconds_bucket",
		"serve_cache_hits_total",
		"serve_cache_misses_total",
		"serve_breaker_state{system=",
		"serve_breakers_open",
		"serve_queue_depth",
		"serve_cache_size",
		"core_solves_total",
		"core_phase_seconds_bucket{phase=\"partition\"",
		"core_backend{backend=",
		"engine_supersteps_total",
		"ipu_compute_cycles_total",
		"ipu_tile_cycles_bucket",
		"solver_runs_total{solver=",
		"converged=\"true\"",
		"solver_iterations_total",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("/metrics missing %q", frag)
		}
	}
}
