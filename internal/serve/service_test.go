package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/fault"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// testOptions keeps the simulated machine tiny so prepares are cheap.
func testOptions() Options {
	mc := ipu.Mk2M2000()
	mc.TilesPerChip = 8
	mc.Chips = 1
	return Options{
		Machine: mc,
		Solver: config.Config{Solver: config.SolverConfig{
			Type:           "pbicgstab",
			MaxIterations:  400,
			Tolerance:      1e-10,
			Preconditioner: &config.SolverConfig{Type: "ilu0"},
		}},
	}
}

func onesRHS(m *sparse.Matrix) []float64 {
	ones := make([]float64, m.N)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, m.N)
	m.MulVec(ones, b)
	return b
}

func TestServiceSolveMatchesCore(t *testing.T) {
	opts := testOptions()
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson3D(5, 5, 5)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != m.N || info.ID != m.FingerprintString() {
		t.Fatalf("bad info %+v", info)
	}

	b := onesRHS(m)
	res, err := s.Solve(context.Background(), info.ID, b)
	if err != nil {
		t.Fatal(err)
	}
	// The cold reference runs on the service's backend: bit identity is the
	// warm-vs-cold contract; across backends the contract is residual-level.
	cold, err := core.Solve(opts.Machine, m, b, opts.Solver, core.PartitionContiguous, core.WithBackend(info.Backend))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("service solve did not converge")
	}
	if res.Stats.Iterations != cold.Stats.Iterations || res.Stats.RelRes != cold.Stats.RelRes {
		t.Fatalf("service solve differs from cold core.Solve: %d/%g vs %d/%g",
			res.Stats.Iterations, res.Stats.RelRes, cold.Stats.Iterations, cold.Stats.RelRes)
	}
	for i := range res.X {
		if res.X[i] != cold.X[i] {
			t.Fatalf("x[%d] differs: %g vs %g", i, res.X[i], cold.X[i])
		}
	}

	// Registration warmed one replica, so the solve was a cache hit.
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Errorf("expected a cache hit, stats %+v", st)
	}
	if st.Solved != 1 {
		t.Errorf("solved = %d, want 1", st.Solved)
	}
}

func TestServiceUnknownSystem(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	_, err := s.Solve(context.Background(), "m0000000000000000", []float64{1})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestServiceConcurrentHammer drives one cached system from many goroutines
// with mixed right-hand sides; under -race this exercises the replica pool,
// the LRU bookkeeping and the stats counters for data races.
func TestServiceConcurrentHammer(t *testing.T) {
	opts := testOptions()
	opts.ReplicasPerKey = 3
	opts.Workers = 4
	opts.QueueDepth = 256
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(9, 9)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := onesRHS(m)

	const goroutines = 8
	const perG = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				// Mixed RHS: scaled variants keep the spectrum identical, so
				// every request converges but the solutions differ.
				b := make([]float64, len(base))
				scale := float64(1 + (g*perG+k)%7)
				for i := range b {
					b[i] = scale * base[i]
				}
				res, err := s.Solve(context.Background(), info.ID, b)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d solve %d: %w", g, k, err)
					return
				}
				if !res.Stats.Converged {
					errs <- fmt.Errorf("goroutine %d solve %d did not converge", g, k)
					return
				}
				// x should be scale * ones (error grows with the RHS scale).
				for i, v := range res.X {
					if d := v - scale; d > 1e-5*scale || d < -1e-5*scale {
						errs <- fmt.Errorf("goroutine %d solve %d: x[%d]=%g want %g", g, k, i, v, scale)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Solved != goroutines*perG {
		t.Errorf("solved = %d, want %d", st.Solved, goroutines*perG)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits under hammering")
	}
	if st.CacheMisses > uint64(opts.ReplicasPerKey) {
		t.Errorf("misses = %d, want at most %d (one per replica)", st.CacheMisses, opts.ReplicasPerKey)
	}
	if st.P50Ms <= 0 {
		t.Errorf("latency stats not recorded: %+v", st)
	}
	// The hammer runs on the serving-default native backend: no cycle model,
	// so the cycle counter must stay zero and the snapshot must say native.
	if st.Backend != "native" || st.CyclesPerSolve != 0 {
		t.Errorf("backend stats: %+v", st)
	}
}

// TestServiceEviction registers more systems than the cache holds and
// verifies old pipelines are evicted and transparently re-prepared.
func TestServiceEviction(t *testing.T) {
	opts := testOptions()
	opts.CacheCapacity = 2
	opts.ReplicasPerKey = 1
	s := New(opts)
	defer s.Close()

	sizes := [][2]int{{6, 6}, {7, 6}, {7, 7}, {8, 7}}
	ids := make([]string, len(sizes))
	mats := make([]*sparse.Matrix, len(sizes))
	for i, sz := range sizes {
		m := sparse.Poisson2D(sz[0], sz[1])
		info, err := s.Register(context.Background(), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
		mats[i] = m
	}
	st := s.Stats()
	if st.Evictions != uint64(len(sizes)-opts.CacheCapacity) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, len(sizes)-opts.CacheCapacity)
	}
	if st.CacheSize != opts.CacheCapacity {
		t.Fatalf("cache size = %d, want %d", st.CacheSize, opts.CacheCapacity)
	}

	// The first system was evicted; solving it must still work (re-prepare,
	// counted as a miss) and evict the next victim.
	missesBefore := st.CacheMisses
	res, err := s.Solve(context.Background(), ids[0], onesRHS(mats[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("solve after eviction did not converge")
	}
	st = s.Stats()
	if st.CacheMisses != missesBefore+1 {
		t.Errorf("misses = %d, want %d (evicted system re-prepared)", st.CacheMisses, missesBefore+1)
	}
}

// TestFailedRegisterKeepsWarmPool: a register whose prepare fails with a
// typed error (the matrix block does not fit a tile) leaves the cache as it
// found it. With room for one pool, the warm system's pool survives and its
// next solve is a hit.
func TestFailedRegisterKeepsWarmPool(t *testing.T) {
	opts := testOptions()
	opts.CacheCapacity = 1
	opts.ReplicasPerKey = 1
	s := New(opts)
	defer s.Close()

	warm := sparse.Poisson2D(6, 6)
	info, err := s.Register(context.Background(), warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if _, err := s.Register(context.Background(), sparse.Poisson3D(50, 50, 50), nil); err == nil ||
		!strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("register of a matrix too big for the tiles: %v, want an out-of-memory error", err)
	}
	after := s.Stats()
	if after.CacheSize != before.CacheSize {
		t.Fatalf("cache size %d after a failed register, want %d", after.CacheSize, before.CacheSize)
	}
	if _, err := s.Solve(context.Background(), info.ID, onesRHS(warm)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheMisses != after.CacheMisses || st.Evictions != before.Evictions {
		t.Fatalf("warm solve after a failed register: %d misses, %d evictions; want %d and %d",
			st.CacheMisses, st.Evictions, after.CacheMisses, before.Evictions)
	}
}

// TestPanickingRegisterLeavesNoEntry: poisson3d:33 under the default
// hierarchy fits its matrix on 8 tiles but not its Krylov vectors, and that
// prepare panics. Each register must come back as an error, give back its
// pool slot and leave no cache or pattern entry behind — so registers beyond
// ReplicasPerKey fail at once instead of waiting for a replica that will
// never be built — and the warm system must still hit.
func TestPanickingRegisterLeavesNoEntry(t *testing.T) {
	opts := testOptions()
	opts.CacheCapacity = 2
	opts.ReplicasPerKey = 2
	s := New(opts)
	defer s.Close()

	warm := sparse.Poisson2D(6, 6)
	info, err := s.Register(context.Background(), warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	big, cfg := sparse.Poisson3D(33, 33, 33), config.Default()
	for i := 0; i <= opts.ReplicasPerKey; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := s.Register(ctx, big, &cfg)
		cancel()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("register %d of an oversize system: %v, want a *PanicError", i, err)
		}
	}
	s.mu.Lock()
	entries, patterns := len(s.cache), len(s.patterns)
	s.mu.Unlock()
	if entries != 1 || patterns != 1 {
		t.Fatalf("%d cache and %d pattern entries after failed registers, want the warm system's 1 and 1", entries, patterns)
	}
	if _, err := s.Solve(context.Background(), info.ID, onesRHS(warm)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != before.CacheHits+1 || st.Evictions != before.Evictions {
		t.Fatalf("warm solve after failed registers: %d hits, %d evictions; want %d and %d",
			st.CacheHits, st.Evictions, before.CacheHits+1, before.Evictions)
	}
}

// TestServiceOverloaded fills the single-slot queue of a single-worker
// service until admission control rejects a submission.
func TestServiceOverloaded(t *testing.T) {
	opts := testOptions()
	opts.Workers = 1
	opts.QueueDepth = 1
	opts.ReplicasPerKey = 1
	// Every solve stalls its replica, which holds the single worker for the
	// stall: a native solve alone drains the burst too fast to reject
	// reliably.
	opts.Chaos = fault.NewChaos(fault.ChaosPlan{
		Seed: 1, Rate: 1, StallDuration: 20 * time.Millisecond,
		Kinds: []fault.ChaosKind{fault.ChaosStall},
	})
	s := New(opts)
	defer s.Close()

	// A burst of concurrent submissions (serialized through enqueue far
	// faster than the stalled worker drains) must overflow the one-slot
	// queue: at any instant one job runs, one waits, the rest bounce with
	// ErrOverloaded.
	m := sparse2dForTest()
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := onesRHS(m)

	const burst = 50
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Solve(context.Background(), info.ID, b)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var ok, overloaded int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok == 0 {
		t.Error("no submission was accepted")
	}
	if overloaded == 0 {
		t.Error("no submission was rejected with ErrOverloaded")
	}
	if st := s.Stats(); st.Rejected != uint64(overloaded) {
		t.Errorf("rejected counter %d, callers saw %d", st.Rejected, overloaded)
	}
}

func TestServiceDeadline(t *testing.T) {
	opts := testOptions()
	opts.Workers = 1
	opts.ReplicasPerKey = 1
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, info.ID, onesRHS(m)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestServiceClosedRejects(t *testing.T) {
	s := New(testOptions())
	m := sparse.Poisson2D(6, 6)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), info.ID, onesRHS(m)); !errors.Is(err, ErrClosed) {
		t.Fatalf("solve after close: err = %v, want ErrClosed", err)
	}
	if _, err := s.Register(context.Background(), sparse.Poisson2D(5, 5), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}

func TestServiceBatch(t *testing.T) {
	opts := testOptions()
	opts.ReplicasPerKey = 2
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := onesRHS(m)
	batch := make([][]float64, 4)
	for k := range batch {
		b := make([]float64, len(base))
		for i := range b {
			b[i] = float64(k+1) * base[i]
		}
		batch[k] = b
	}
	items, err := s.SolveBatch(context.Background(), info.ID, batch)
	if err != nil {
		t.Fatal(err)
	}
	for k, it := range items {
		if it.Err != nil {
			t.Fatalf("batch item %d: %v", k, it.Err)
		}
		if !it.Result.Stats.Converged {
			t.Fatalf("batch item %d did not converge", k)
		}
		want := float64(k + 1)
		for i, v := range it.Result.X {
			if d := v - want; d > 1e-5*want || d < -1e-5*want {
				t.Fatalf("batch item %d: x[%d]=%g want %g", k, i, v, want)
			}
		}
	}
}

// TestHTTPRoundTrip drives the full JSON API through httptest: register via
// generator spec, solve single and batched, read stats, check error paths.
func TestHTTPRoundTrip(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	// Register.
	resp, body := post("/v1/systems", RegisterRequest{Gen: "poisson3d:5"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var info SystemInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.N != 125 || info.Solver == "" {
		t.Fatalf("bad register response %+v", info)
	}

	// Solve with the ones generator.
	resp, body = post("/v1/systems/"+info.ID+"/solve", SolveRequest{RHS: "ones"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Converged || len(sr.X) != info.N {
		t.Fatalf("bad solve response %+v", sr)
	}
	for i, v := range sr.X {
		if d := v - 1; d > 1e-6 || d < -1e-6 {
			t.Fatalf("x[%d] = %g, want 1", i, v)
		}
	}

	// Batched solve, solutions omitted.
	b, err := s.OnesRHS(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post("/v1/systems/"+info.ID+"/solve", SolveRequest{Batch: [][]float64{b, b}, OmitX: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d batch results", len(br.Results))
	}
	for i, r := range br.Results {
		if !r.Converged || r.Error != "" || r.X != nil {
			t.Fatalf("batch result %d: %+v", i, r)
		}
	}

	// Stats report cache hits (registration warmed the pipeline).
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.CacheHits == 0 || st.Solved != 3 {
		t.Fatalf("bad stats %+v", st)
	}

	// Error paths.
	resp, _ = post("/v1/systems/m0000000000000000/solve", SolveRequest{RHS: "ones"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown system: %d, want 404", resp.StatusCode)
	}
	resp, _ = post("/v1/systems", RegisterRequest{Gen: "nosuchgen:3"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad generator: %d, want 400", resp.StatusCode)
	}
	resp, _ = post("/v1/systems/"+info.ID+"/solve", SolveRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty solve request: %d, want 400", resp.StatusCode)
	}

	// Healthz.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestHTTPRegisterEntries registers a matrix by explicit entry list.
func TestHTTPRegisterEntries(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// 4-point 1D Laplacian, n=8.
	req := RegisterRequest{N: 8}
	for i := 0; i < 8; i++ {
		req.Entries = append(req.Entries, [3]float64{float64(i), float64(i), 2})
		if i > 0 {
			req.Entries = append(req.Entries, [3]float64{float64(i), float64(i - 1), -1})
		}
		if i < 7 {
			req.Entries = append(req.Entries, [3]float64{float64(i), float64(i + 1), -1})
		}
	}
	buf, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/systems", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register entries: %d", resp.StatusCode)
	}
	var info SystemInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.N != 8 || info.NNZ != 22 {
		t.Fatalf("bad info %+v", info)
	}
}
