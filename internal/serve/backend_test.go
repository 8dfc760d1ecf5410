package serve

import (
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

// TestServicePerSystemBackendOverride: a per-system engine.backend other
// than native (any simulator spelling) is refused by the serving gate, typed,
// on registration and on PATCH, over the API and over HTTP, and nothing is
// registered or changed.
func TestServicePerSystemBackendOverride(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(10, 10)
	for _, be := range []string{"sim", "simulator"} {
		simCfg := opts.Solver
		simCfg.Engine = &config.EngineConfig{Backend: be}
		if _, err := s.Register(context.Background(), m, &simCfg); !config.IsUnsupported(err) {
			t.Fatalf("register with engine.backend %s: err=%v, want typed UnsupportedError", be, err)
		}
	}
	if n := len(s.Systems()); n != 0 {
		t.Fatalf("a refused registration left %d system(s)", n)
	}

	checkTyped := func(what string, code int, out string) {
		t.Helper()
		var body map[string]string
		if err := json.Unmarshal([]byte(out), &body); err != nil || code != http.StatusBadRequest ||
			body["unsupported"] != "engine.backend sim" || body["backend"] != "native" {
			t.Fatalf("%s naming sim: %d %s, want the typed 400", what, code, out)
		}
	}
	w := doReq(t, s, http.MethodPost, "/v1/systems",
		`{"gen":"poisson2d:6","config":{"solver":{"type":"cg","maxIterations":300,"tolerance":1e-8},"engine":{"backend":"sim"}}}`)
	checkTyped("HTTP register", w.Code, w.Body.String())

	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.Solver
	cfg.Engine = &config.EngineConfig{Backend: "sim"}
	body, _ := json.Marshal(UpdateRequest{Diag: drift(m, 1).Diag, Config: &cfg})
	w = doReq(t, s, http.MethodPatch, "/v1/systems/"+info.ID, string(body))
	checkTyped("PATCH", w.Code, w.Body.String())
	if sys, _ := s.lookup(info.ID); sys.generation != 1 {
		t.Fatalf("a refused PATCH moved the generation to %d", sys.generation)
	}
}

// TestRegisterEngineBlockMerge: no engine block reaches a replica. Whatever
// the service's block and the system's (backend native, parallelism or none)
// say, the registered system serves native and its config carries no engine
// block, so it shares the plain config's cache key.
func TestRegisterEngineBlockMerge(t *testing.T) {
	svcSim := &config.EngineConfig{Backend: "sim", Parallelism: 2}
	for _, tc := range []struct {
		name    string
		service *config.EngineConfig
		system  *config.EngineConfig
	}{
		{"absent", svcSim, nil},
		{"backend-only", svcSim, &config.EngineConfig{Backend: "native"}},
		{"parallelism-only", svcSim, &config.EngineConfig{Parallelism: 3}},
		{"no service block", nil, &config.EngineConfig{Parallelism: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			plain := opts.Solver
			opts.Solver.Engine = tc.service
			s := New(opts)
			defer s.Close()
			cfg := plain
			cfg.Engine = tc.system
			m := sparse.Poisson2D(6, 6)
			info, err := s.Register(context.Background(), m, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := s.lookup(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if info.Backend != "native" || sys.cfg.Engine != nil || sys.key.Config != configHash(plain) {
				t.Fatalf("backend %q, engine block %+v; want native and none", info.Backend, sys.cfg.Engine)
			}
			res, err := s.Solve(context.Background(), info.ID, onesRHS(m))
			if err != nil {
				t.Fatal(err)
			}
			if res.Machine.TotalCycles != 0 {
				t.Fatalf("solve billed %d cycles: it did not run native", res.Machine.TotalCycles)
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
	bad.Engine = &config.EngineConfig{Backend: "quantum"}
	if _, err := s.Register(context.Background(), sparse.Poisson2D(6, 6), &bad); err == nil {
		t.Fatal("registration accepted an unknown backend")
	}
}

// TestWALReplaysSimRecordOnNative: a record written before serving went
// native-only, whose config names the simulator and a device trace, skips the
// gate on replay: Open succeeds, and the system serves native and writes no
// trace.
func TestWALReplaysSimRecordOnNative(t *testing.T) {
	opts := testOptions()
	opts.StateDir = t.TempDir()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := sparse.Poisson2D(6, 6)
	cfg := opts.Solver
	trace := filepath.Join(t.TempDir(), "trace.json")
	cfg.Engine = &config.EngineConfig{Backend: "sim", Trace: trace}
	rec, err := json.Marshal(NewRegistrationRecord(m, &cfg))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(opts.StateDir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("a sim record must replay: %v", err)
	}
	defer s2.Close()
	info, err := s2.SystemDetail(m.FingerprintString())
	if err != nil {
		t.Fatalf("sim record did not replay: %v", err)
	}
	if info.Backend != "native" {
		t.Fatalf("replayed system backend %q, want native", info.Backend)
	}
	res, err := s2.Solve(context.Background(), info.ID, onesRHS(m))
	if err != nil || !res.Stats.Converged {
		t.Fatalf("replayed solve: err=%v", err)
	}
	if res.Machine.TotalCycles != 0 {
		t.Fatalf("replayed solve billed %d cycles: it did not run native", res.Machine.TotalCycles)
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Fatalf("replayed solve wrote the recorded trace file (stat err %v)", err)
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

// TestRegisterCapabilityGate: a config that requests device tracing, which
// needs the simulator, is rejected at registration time — API-level with the
// typed config.UnsupportedError, HTTP-level with a 400 and the typed
// capability body — never on the first solve, with or without a backend
// named beside it.
func TestRegisterCapabilityGate(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()
	m := sparse.Poisson2D(8, 8)

	for _, be := range []string{"", "native"} {
		traced := opts.Solver
		traced.Engine = &config.EngineConfig{Backend: be, Trace: filepath.Join(t.TempDir(), "run.json")}
		if _, err := s.Register(context.Background(), m, &traced); !config.IsUnsupported(err) {
			t.Fatalf("registration with engine.trace (backend %q): err=%v, want typed UnsupportedError", be, err)
		}
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
	if n := len(s.Systems()); n != 0 {
		t.Fatalf("a refused registration left %d system(s)", n)
	}
}
