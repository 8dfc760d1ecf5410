package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipusparse/internal/breaker"
	"ipusparse/internal/config"
	"ipusparse/internal/ipu"
	"ipusparse/internal/serve"
)

// shardOptions keeps the simulated machine tiny so prepares are cheap.
func shardOptions() serve.Options {
	mc := ipu.Mk2M2000()
	mc.TilesPerChip = 8
	mc.Chips = 1
	return serve.Options{
		Machine: mc,
		Solver: config.Config{Solver: config.SolverConfig{
			Type:           "pbicgstab",
			MaxIterations:  400,
			Tolerance:      1e-10,
			Preconditioner: &config.SolverConfig{Type: "ilu0"},
		}},
	}
}

// testShard is one in-process backend with a kill switch: while down, every
// connection is aborted mid-response — the transport-level footprint of
// kill -9. Restart swaps in a fresh, empty service (no state dir), the
// worst-case recovery the reconciler must repair.
type testShard struct {
	srv  *httptest.Server
	down atomic.Bool
	opts serve.Options

	mu  sync.Mutex
	svc *serve.Service
}

func newTestShard(t *testing.T) *testShard {
	return newTestShardOpts(t, shardOptions())
}

// newTestShardOpts boots a shard whose service uses the given options — the
// tune tests arm the autotuner this way.
func newTestShardOpts(t *testing.T, opts serve.Options) *testShard {
	t.Helper()
	ts := &testShard{svc: serve.New(opts), opts: opts}
	ts.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ts.down.Load() {
			panic(http.ErrAbortHandler)
		}
		ts.mu.Lock()
		svc := ts.svc
		ts.mu.Unlock()
		svc.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.srv.Close()
		ts.service().Close()
	})
	return ts
}

func (ts *testShard) service() *serve.Service {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.svc
}

// kill drops the shard: every request aborts until restart.
func (ts *testShard) kill() { ts.down.Store(true) }

// restart brings the shard back EMPTY — registrations are gone, the
// reconciler must re-import them.
func (ts *testShard) restart() {
	ts.mu.Lock()
	old := ts.svc
	ts.svc = serve.New(ts.opts)
	ts.mu.Unlock()
	old.Close()
	ts.down.Store(false)
}

// testCluster wires n shards behind a router with background loops slowed to
// a crawl — tests drive ProbeNow/Reconcile explicitly for determinism.
func testCluster(t *testing.T, n, replicas int) (*Router, []*testShard) {
	return testClusterOpts(t, n, replicas, shardOptions())
}

// testClusterOpts wires n shards built from the given serve options.
func testClusterOpts(t *testing.T, n, replicas int, opts serve.Options) (*Router, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newTestShardOpts(t, opts)
		urls[i] = shards[i].srv.URL
	}
	rt, err := New(Options{
		Shards:            urls,
		Replicas:          replicas,
		ProbeInterval:     time.Hour,
		ReconcileInterval: time.Hour,
		ProbeTimeout:      2 * time.Second,
		BreakerThreshold:  2,
		BreakerCooldown:   100 * time.Millisecond,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.ProbeNow()
	return rt, shards
}

// shardByURL maps a replica-set entry back to its test shard.
func shardByURL(shards []*testShard, url string) *testShard {
	for _, ts := range shards {
		if ts.srv.URL == url {
			return ts
		}
	}
	return nil
}

// registerGen registers a generator-spec system through the router API.
func registerGen(t *testing.T, rt *Router, gen string) serve.SystemInfo {
	t.Helper()
	info, err := rt.Register(context.Background(), serve.RegisterRequest{Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// solveOnes posts a ones-RHS solve through the router handler and checks the
// answer is the all-ones vector.
func solveOnes(t *testing.T, h http.Handler, id string) serve.SolveResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/systems/"+id+"/solve",
		bytes.NewReader([]byte(`{"rhs":"ones"}`)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("solve = %d %s", w.Code, w.Body.String())
	}
	var res serve.SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("solve did not converge: %+v", res)
	}
	for i, v := range res.X {
		if d := v - 1; d > 1e-6 || d < -1e-6 {
			t.Fatalf("x[%d] = %g, want 1", i, v)
		}
	}
	return res
}

// TestRouterRegisterPlacesReplicaSet registers through the router HTTP API
// and requires the system on exactly R shards, solvable through the router.
func TestRouterRegisterPlacesReplicaSet(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	h := rt.Handler()

	body := bytes.NewReader([]byte(`{"gen":"poisson2d:7"}`))
	req := httptest.NewRequest(http.MethodPost, "/v1/systems", body)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("register = %d %s", w.Code, w.Body.String())
	}
	var info serve.SystemInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}

	holders := 0
	for _, ts := range shards {
		for _, s := range ts.service().Systems() {
			if s.ID == info.ID {
				holders++
			}
		}
	}
	if holders != 2 {
		t.Fatalf("system on %d shards, want replica factor 2", holders)
	}
	solveOnes(t, h, info.ID)

	// The topology endpoint reports the placement.
	req = httptest.NewRequest(http.MethodGet, "/v1/cluster", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var topo Topology
	if err := json.Unmarshal(w.Body.Bytes(), &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Systems[info.ID]) != 2 {
		t.Fatalf("topology reports %v for %s, want 2 replicas", topo.Systems[info.ID], info.ID)
	}
}

// TestRouterFailsOverOnShardDeath kills the preferred replica and requires
// the next one to answer — same request, no client-visible failure.
func TestRouterFailsOverOnShardDeath(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:7")

	solveOnes(t, h, info.ID) // warm: routes to the preferred replica

	preferred := rt.replicaSet(info.ID)[0]
	shardByURL(shards, preferred.name).kill()

	res := solveOnes(t, h, info.ID) // must fail over, not 500
	if !res.Converged {
		t.Fatal("failover answer did not converge")
	}
	if got := rt.Stats().Failovers; got == 0 {
		t.Fatal("failover not counted")
	}
}

// TestRouterBreakerShedsDeadShard keeps hitting a cluster with one dead
// shard: after threshold failures its breaker opens and later requests skip
// it without paying the connection attempt.
func TestRouterBreakerShedsDeadShard(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:7")

	preferred := rt.replicaSet(info.ID)[0]
	shardByURL(shards, preferred.name).kill()

	for i := 0; i < 4; i++ {
		solveOnes(t, h, info.ID)
	}
	if st := preferred.br.State(); st != breaker.Open {
		t.Fatalf("dead shard's breaker = %v after repeated failures, want open", st)
	}
	// With the breaker open the dead shard is skipped silently — no failover
	// increment for it anymore.
	before := rt.Stats().Failovers
	solveOnes(t, h, info.ID)
	if after := rt.Stats().Failovers; after != before {
		t.Fatalf("open breaker still pays failovers: %d -> %d", before, after)
	}
}

// TestRouterReconcileRepairsEmptyRestart crash-restarts a replica (losing
// its registrations) and requires one reconcile pass to re-import the lost
// system idempotently.
func TestRouterReconcileRepairsEmptyRestart(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	info := registerGen(t, rt, "poisson2d:7")

	victimURL := rt.replicaSet(info.ID)[0].name
	victim := shardByURL(shards, victimURL)
	victim.kill()
	victim.restart() // back up, but empty
	rt.ProbeNow()

	if n := len(victim.service().Systems()); n != 0 {
		t.Fatalf("restarted shard holds %d systems before reconcile", n)
	}
	if repaired := rt.Reconcile(context.Background()); repaired == 0 {
		t.Fatal("reconcile repaired nothing")
	}
	found := false
	for _, s := range victim.service().Systems() {
		if s.ID == info.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("restarted shard still missing the system after reconcile")
	}
	// A second pass is a no-op: repair is idempotent.
	if repaired := rt.Reconcile(context.Background()); repaired != 0 {
		t.Fatalf("idempotent reconcile repaired %d", repaired)
	}
}

// TestRouterRepairsOn404 exercises the inline repair: a shard that restarted
// empty answers 404, the router re-registers the system on it and retries the
// same request — the client sees one successful answer.
func TestRouterRepairsOn404(t *testing.T) {
	rt, shards := testCluster(t, 2, 1) // replica factor 1: no failover escape
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:7")

	owner := shardByURL(shards, rt.replicaSet(info.ID)[0].name)
	owner.kill()
	owner.restart()
	rt.ProbeNow()

	solveOnes(t, h, info.ID)
	st := rt.Stats()
	if st.Reregistrations == 0 || st.Retries == 0 {
		t.Fatalf("404 repair not counted: %+v", st)
	}
}

// TestRouterDrainMigratesAndCompletes drains a replica: its registrations
// move to the remaining shards, in-flight work completes, and after the drain
// the shard serves nothing while the cluster still answers.
func TestRouterDrainMigratesAndCompletes(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:7")
	info2 := registerGen(t, rt, "poisson3d:4")

	victimURL := rt.replicaSet(info.ID)[0].name
	rep, err := rt.DrainShard(context.Background(), victimURL)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inflight != 0 {
		t.Fatalf("drain finished with %d in-flight requests", rep.Inflight)
	}
	if rep.Migrated == 0 {
		t.Fatal("drain migrated nothing although the shard held a replica")
	}
	// The drained shard is out of every replica set…
	for _, sys := range []string{info.ID, info2.ID} {
		for _, sh := range rt.replicaSet(sys) {
			if sh.name == victimURL {
				t.Fatalf("drained shard still in %s's replica set", sys)
			}
		}
	}
	// …its service refuses new work…
	if !shardByURL(shards, victimURL).service().Draining() {
		t.Fatal("drained shard's service does not report draining")
	}
	// …and the cluster keeps answering both systems.
	solveOnes(t, h, info.ID)
	solveOnes(t, h, info2.ID)

	// Undrain restores it to placement eligibility.
	if err := rt.UndrainShard(victimURL); err != nil {
		t.Fatal(err)
	}
}

// TestRouterReadyz requires 503 only when every shard is gone.
func TestRouterReadyz(t *testing.T) {
	rt, shards := testCluster(t, 2, 2)
	h := rt.Handler()

	get := func() int {
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("healthy cluster /readyz = %d", code)
	}
	shards[0].kill()
	rt.ProbeNow()
	if code := get(); code != http.StatusOK {
		t.Fatalf("one live shard /readyz = %d, want 200", code)
	}
	shards[1].kill()
	rt.ProbeNow()
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("dead cluster /readyz = %d, want 503", code)
	}
}

// TestRouterMetricsExposition checks the router series appear on /metrics.
func TestRouterMetricsExposition(t *testing.T) {
	rt, _ := testCluster(t, 2, 2)
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:6")
	solveOnes(t, h, info.ID)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body := w.Body.String()
	for _, frag := range []string{
		"cluster_routed_total{shard=",
		"cluster_shard_latency_seconds_bucket",
		"cluster_breaker_state{shard=",
		"cluster_shard_health{shard=",
		"cluster_failovers_total",
		"cluster_reregistrations_total",
	} {
		if !contains(body, frag) {
			t.Errorf("/metrics missing %q", frag)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestRouterConcurrentLoadWithKill hammers the router from several goroutines
// while a shard dies and comes back empty — every request must succeed (the
// availability property the chaos harness asserts at process level).
func TestRouterConcurrentLoadWithKill(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:7")
	solveOnes(t, h, info.ID)

	victim := shardByURL(shards, rt.replicaSet(info.ID)[0].name)

	var fails atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/systems/"+info.ID+"/solve",
					bytes.NewReader([]byte(`{"rhs":"ones","omitX":true}`)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					fails.Add(1)
					t.Logf("solve failed: %d %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	victim.kill()
	time.Sleep(200 * time.Millisecond)
	victim.restart()
	rt.ProbeNow()
	rt.Reconcile(context.Background())
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := fails.Load(); n > 0 {
		t.Fatalf("%d requests failed across the kill/restart cycle", n)
	}
	if rt.Stats().Failovers == 0 {
		t.Fatal("kill cycle produced no failovers — the scenario missed the victim")
	}
}

// TestRouterSoleReplicaKillIsUnroutableUntilRepair pins the replica-factor-1
// outage window: with the only holder dead, a solve answers a typed 503 and
// never a 200 that could carry a wrong x; one probe + reconcile pass re-places the system on a
// survivor while the victim is still down, and solves answer again.
func TestRouterSoleReplicaKillIsUnroutableUntilRepair(t *testing.T) {
	rt, shards := testCluster(t, 3, 1)
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:7")
	solveOnes(t, h, info.ID)

	shardByURL(shards, rt.replicaSet(info.ID)[0].name).kill()
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/systems/"+info.ID+"/solve",
			bytes.NewReader([]byte(`{"rhs":"ones"}`)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable || !contains(w.Body.String(), ErrNoShards.Error()) {
			t.Fatalf("solve %d = %d %s, want 503 %q", i, w.Code, w.Body.String(), ErrNoShards)
		}
	}
	if st := rt.Stats(); st.Unroutable == 0 {
		t.Fatalf("outage window not counted as unroutable: %+v", st)
	}

	rt.ProbeNow()
	rt.Reconcile(context.Background())
	if st := rt.Stats(); st.Reregistrations == 0 {
		t.Fatalf("reconcile did not re-place the system: %+v", st)
	}
	solveOnes(t, h, info.ID)
}

// TestRouterCapabilityGate: a registration whose config pins the native
// backend and requests a simulator-only feature is rejected by the router
// itself — typed, before any shard traffic — with the same HTTP 400 body a
// shard would produce.
func TestRouterCapabilityGate(t *testing.T) {
	rt, shards := testCluster(t, 2, 2)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/systems", "application/json", strings.NewReader(
		`{"gen":"poisson2d:6","config":{"solver":{"type":"cg","maxIterations":300,"tolerance":1e-8},"engine":{"backend":"native","trace":"/tmp/t.json"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("router capability mismatch: status %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["unsupported"] != "device tracing" || body["backend"] != "native" {
		t.Fatalf("typed 400 body missing capability fields: %v", body)
	}
	for _, sh := range shards {
		if n := len(sh.service().Systems()); n != 0 {
			t.Fatalf("rejected registration still placed %d system(s) on a shard", n)
		}
	}
}

// TestRouterUpdateRefreshesReplicaSet drives a values-only refresh through
// the router's PATCH /v1/systems/{id}: every replica-set shard applies it, the system keeps its stable ID with the values generation
// bumped, ring placement stays put, and a structural change answers 409 with
// no shard re-placed.
func TestRouterUpdateRefreshesReplicaSet(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	h := rt.Handler()
	info := registerGen(t, rt, "poisson2d:8")
	before := rt.ReplicaSet(info.ID)

	// Scale the diagonal up (SPD preserved) through the router.
	m, err := serve.BuildMatrix(serve.RegisterRequest{Gen: "poisson2d:8"})
	if err != nil {
		t.Fatal(err)
	}
	diag := append([]float64(nil), m.Diag...)
	for i := range diag {
		diag[i] += 0.5 * float64(1+i%4)
	}
	body, _ := json.Marshal(serve.UpdateRequest{Diag: diag})
	req := httptest.NewRequest(http.MethodPatch, "/v1/systems/"+info.ID, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("update = %d %s", w.Code, w.Body.String())
	}
	var up serve.UpdateInfo
	if err := json.Unmarshal(w.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	if up.ID != info.ID || up.Generation != info.Generation+1 {
		t.Fatalf("bad update info %+v (registered %+v)", up, info)
	}

	// Placement stays put: the refreshed system keeps its warm shards.
	after := rt.ReplicaSet(up.ID)
	if len(after) != len(before) {
		t.Fatalf("replica set resized: %v vs %v", before, after)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("replica set moved after update: %v vs %v", before, after)
		}
	}

	// Every replica shard applied the refresh under the stable ID, with
	// refresh counters ticking.
	for _, url := range after {
		ts := shardByURL(shards, url)
		gens := map[string]int{}
		for _, s := range ts.service().Systems() {
			gens[s.ID] = s.Generation
		}
		if gens[up.ID] != up.Generation {
			t.Fatalf("shard %s holds %v, want %s at generation %d", url, gens, up.ID, up.Generation)
		}
		if st := ts.service().Stats(); st.Refreshed == 0 {
			t.Fatalf("shard %s applied the update without refreshing in place: %+v", url, st)
		}
	}

	// The updated system solves through the router (answer = all-ones via
	// the ones RHS, independent of the new values).
	solveOnes(t, h, up.ID)

	// A structural change is a 409 before any shard traffic.
	body, _ = json.Marshal(serve.UpdateRequest{Gen: "poisson2d:9"})
	req = httptest.NewRequest(http.MethodPatch, "/v1/systems/"+up.ID, bytes.NewReader(body))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusConflict {
		t.Fatalf("structural update = %d %s, want 409", w.Code, w.Body.String())
	}

	// An unknown target is a 404.
	req = httptest.NewRequest(http.MethodPatch, "/v1/systems/m0000000000000000",
		bytes.NewReader([]byte(`{"gen":"poisson2d:8"}`)))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown update = %d %s, want 404", w.Code, w.Body.String())
	}
}

// TestRouterUpdateRepairsLostShard: a replica that restarted empty is
// re-imported and refreshed by the update itself — the same 404-repair path
// solves use.
func TestRouterUpdateRepairsLostShard(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	info := registerGen(t, rt, "poisson2d:7")
	set := rt.ReplicaSet(info.ID)
	// Drop the second replica's state (restart empty, still serving).
	shardByURL(shards, set[1]).restart()

	m, err := serve.BuildMatrix(serve.RegisterRequest{Gen: "poisson2d:7"})
	if err != nil {
		t.Fatal(err)
	}
	diag := append([]float64(nil), m.Diag...)
	for i := range diag {
		diag[i] += 1.25
	}
	up, err := rt.Update(context.Background(), serve.UpdateRequest{ID: info.ID, Diag: diag})
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range rt.ReplicaSet(up.ID) {
		ids := map[string]bool{}
		for _, s := range shardByURL(shards, url).service().Systems() {
			ids[s.ID] = true
		}
		if !ids[up.ID] {
			t.Fatalf("shard %s missing %s after repairing update", url, up.ID)
		}
	}
	solveOnes(t, rt.Handler(), up.ID)
}

// TestRouterRegisterSkipsOpenBreaker pins the fan-out gate on registration: a
// replica whose breaker is open receives no import — registration used to
// send it one and wait out RegisterTimeout — and the system still registers
// on the remaining replica, leaving the set for the reconciler to complete.
func TestRouterRegisterSkipsOpenBreaker(t *testing.T) {
	rt, shards := testCluster(t, 3, 2)
	req := serve.RegisterRequest{Gen: "poisson2d:7"}
	m, err := serve.BuildMatrix(req)
	if err != nil {
		t.Fatal(err)
	}
	set := rt.replicaSet(serve.NewRegistrationRecord(m, nil).ID)
	shed := set[0]
	shed.br.Failure()
	shed.br.Failure() // threshold 2: open
	if st := shed.br.State(); st != breaker.Open {
		t.Fatalf("breaker = %v, want open", st)
	}
	info, err := rt.Register(context.Background(), req)
	if err != nil {
		t.Fatalf("registration with one open-breaker replica: %v", err)
	}
	if got := shardByURL(shards, shed.name).service().Systems(); len(got) != 0 {
		t.Fatalf("open-breaker shard received the import: %+v", got)
	}
	held := shardByURL(shards, set[1].name).service().Systems()
	if len(held) != 1 || held[0].ID != info.ID {
		t.Fatalf("remaining replica holds %+v, want %s", held, info.ID)
	}
}

// TestRouterAppErrorSettlesProbe: a half-open probe answered with an
// application-level 400 proves the shard reachable and closes its breaker,
// exactly as on the solve path — it must not keep the probe slot forever and
// shed every later write.
func TestRouterAppErrorSettlesProbe(t *testing.T) {
	rt, _ := testCluster(t, 1, 1)
	info := registerGen(t, rt, "poisson2d:7")
	m, err := serve.BuildMatrix(serve.RegisterRequest{Gen: "poisson2d:7"})
	if err != nil {
		t.Fatal(err)
	}
	sh := rt.replicaSet(info.ID)[0]
	sh.br.Failure()
	sh.br.Failure()                    // threshold 2: open
	time.Sleep(150 * time.Millisecond) // past the 100ms cooldown: next call is the probe

	other := shardOptions().Solver
	other.Solver.Preconditioner = &config.SolverConfig{Type: "jacobi"}
	_, err = rt.Update(context.Background(), serve.UpdateRequest{ID: info.ID, Diag: m.Diag, Config: &other})
	if err == nil {
		t.Fatal("config-changing update accepted")
	}
	if st := sh.br.State(); st != breaker.Closed {
		t.Fatalf("breaker = %v after an answered probe, want closed", st)
	}
	if _, err := rt.Update(context.Background(), serve.UpdateRequest{ID: info.ID, Diag: m.Diag}); err != nil {
		t.Fatalf("update after the answered probe: %v", err)
	}
}

// TestRemovedRPCRoutes pins the one-spelling rule on the router: the pre-v1
// RPC routes are gone, so each answers what the mux answers for a path it
// does not serve.
func TestRemovedRPCRoutes(t *testing.T) {
	rt, _ := testCluster(t, 1, 1)
	h := rt.Handler()
	for _, path := range []string{"/v1/register", "/v1/solve", "/v1/update"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"gen":"poisson2d:7"}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusNotFound && w.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 404 or 405", path, w.Code)
		}
	}
}
