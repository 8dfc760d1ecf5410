package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
)

// TestServiceBackendDefaults: a fresh service serves on the native backend
// and reports it in its stats snapshot.
func TestServiceBackendDefaults(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()
	if st := s.Stats(); st.Backend != "native" {
		t.Fatalf("service default backend = %q, want native", st.Backend)
	}

	m := sparse.Poisson2D(12, 12)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), info.ID, onesRHS(m))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("native-served solve did not converge: %+v", res.Stats)
	}
	if res.Machine.TotalCycles != 0 {
		t.Fatalf("native solve billed %d cycles, want 0", res.Machine.TotalCycles)
	}
}

// TestServicePerSystemBackendOverride registers the same matrix twice — once
// inheriting the native service default, once pinned to the simulator through
// its engine.backend key — and checks the pipelines are cached under distinct
// keys and each runs on its own backend.
func TestServicePerSystemBackendOverride(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(10, 10)
	nativeInfo, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := opts.Solver
	simCfg.Engine = &config.EngineConfig{Backend: "simulator"} // canonicalizes to "sim"
	simInfo, err := s.Register(context.Background(), m, &simCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same matrix, same solver hierarchy — the engine block is excluded from
	// the config hash, so only the backend separates the two registrations.
	if nativeInfo.ID != simInfo.ID {
		// Distinct IDs would also be fine; the interesting assertions are on
		// the system that won the id slot below.
		t.Logf("ids differ: %s vs %s", nativeInfo.ID, simInfo.ID)
	}

	s.mu.Lock()
	sys := s.systems[simInfo.ID]
	s.mu.Unlock()
	if sys.backend != "sim" {
		t.Fatalf("per-system backend = %q, want sim", sys.backend)
	}
	if sys.key.Backend != "sim" {
		t.Fatalf("cache key backend = %q, want sim", sys.key.Backend)
	}

	res, err := s.Solve(context.Background(), simInfo.ID, onesRHS(m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.TotalCycles == 0 {
		t.Fatal("simulator-pinned system billed no cycles")
	}
}

// TestRegisterEngineBlockMerge: a per-system engine block overrides the
// service's field by field, so a system that names only its backend keeps the
// service's parallelism and one that names only its parallelism keeps the
// service's backend.
func TestRegisterEngineBlockMerge(t *testing.T) {
	svcSim := &config.EngineConfig{Backend: "sim", Parallelism: 2}
	for _, tc := range []struct {
		name     string
		service  *config.EngineConfig
		system   *config.EngineConfig
		backend  string
		parallel int
	}{
		{"absent", svcSim, nil, "sim", 2},
		{"backend-only", svcSim, &config.EngineConfig{Backend: "native"}, "native", 2},
		{"parallelism-only", svcSim, &config.EngineConfig{Parallelism: 3}, "sim", 3},
		{"no service block", nil, &config.EngineConfig{Parallelism: 3}, "native", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			opts.Solver.Engine = tc.service
			s := New(opts)
			defer s.Close()
			cfg := opts.Solver
			cfg.Engine = tc.system
			info, err := s.Register(context.Background(), sparse.Poisson2D(6, 6), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := s.lookup(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if info.Backend != tc.backend || sys.cfg.EngineParallelism() != tc.parallel {
				t.Fatalf("resolved backend %q, parallelism %d; want %q and %d",
					info.Backend, sys.cfg.EngineParallelism(), tc.backend, tc.parallel)
			}
		})
	}
}

// TestServiceRejectsUnknownBackend: a bad engine.backend fails registration.
func TestServiceRejectsUnknownBackend(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()
	bad := opts.Solver
	bad.Engine = &config.EngineConfig{Backend: "sim"} // valid for Validate...
	bad.Engine.Backend = "quantum"                    // ...then broken
	if _, err := s.Register(context.Background(), sparse.Poisson2D(6, 6), &bad); err == nil {
		t.Fatal("registration accepted an unknown backend")
	}
}

// TestNativeReplicasConcurrent hammers one native-backed system from many
// goroutines so the race detector sweeps the shared-nothing claim: each
// Prepared replica owns its buffers and instruction stream, so concurrent
// native solves across replicas must not trip -race.
func TestNativeReplicasConcurrent(t *testing.T) {
	opts := testOptions()
	opts.ReplicasPerKey = 4
	opts.Workers = 4
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(16, 16)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := onesRHS(m)

	const goroutines, per = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				res, err := s.Solve(context.Background(), info.ID, b)
				if err != nil {
					errs <- err
					return
				}
				if !res.Stats.Converged {
					errs <- context.DeadlineExceeded
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Solved != goroutines*per {
		t.Fatalf("solved = %d, want %d", st.Solved, goroutines*per)
	}
}

// TestRegisterCapabilityGate: a config that requests a simulator-only
// feature (device tracing) on the native default replica is rejected at
// registration time — API-level with the typed config.UnsupportedError,
// HTTP-level with a 400 and the typed capability body — never on the first
// solve. The same config pinned to the simulator registers and solves, with
// the engine.trace key writing the device timeline.
func TestRegisterCapabilityGate(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()
	m := sparse.Poisson2D(8, 8)

	traced := opts.Solver
	traced.Engine = &config.EngineConfig{Trace: filepath.Join(t.TempDir(), "run.json")}
	if _, err := s.Register(context.Background(), m, &traced); !config.IsUnsupported(err) {
		t.Fatalf("native registration with engine.trace: err=%v, want typed UnsupportedError", err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/systems", "application/json", strings.NewReader(
		`{"gen":"poisson2d:6","config":{"solver":{"type":"cg","maxIterations":300,"tolerance":1e-8},"engine":{"trace":"/tmp/ipusparse-trace.json"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("capability mismatch over HTTP: status %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["unsupported"] != "device tracing" || body["backend"] != "native" {
		t.Fatalf("typed 400 body missing capability fields: %v", body)
	}

	// Pinned to the simulator the same request is fine, and a solve writes
	// the configured trace file.
	traced.Engine.Backend = "sim"
	info, err := s.Register(context.Background(), m, &traced)
	if err != nil {
		t.Fatalf("sim registration with engine.trace: %v", err)
	}
	if _, err := s.Solve(context.Background(), info.ID, onesRHS(m)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traced.Engine.Trace)
	if err != nil {
		t.Fatalf("engine.trace wrote nothing: %v", err)
	}
	if !bytes.Contains(data, []byte("traceEvents")) {
		t.Fatalf("engine.trace output is not a trace-event file: %.80s", data)
	}
}
