// Command servesmoke is the end-to-end smoke test of the solver service and
// the solve cluster. It boots real ipuserved (and, for the cluster phase,
// ipurouterd) processes on random ports and drives the phases named by
// -phases (default serve,restart; "all" runs every one):
//
//   - serve: register a small Poisson system, fire concurrent batched
//     solves, verify every solution against the known exact answer, check
//     the cache stats, drain gracefully.
//
//   - restart: register against a crash-safe (-state-dir) server, solve,
//     kill the process with SIGKILL, restart it on the same state directory,
//     and require the system recovered from the WAL with a bit-identical
//     warm solve.
//
//   - chaos: rerun serving under a seeded fault campaign (replica crashes,
//     stalls, breakdown storms, host errors) and require zero wrong answers
//     and >=99% availability, then kill -9 and recover. Then rerun with a
//     device-level campaign (the config's fault block) on the native backend
//     every replica runs — bit flips and exchange corruption inside the
//     solves, ABFT armed — and require every answer right, in-loop checksum
//     detections firing, and sdc_escapes_total staying 0. The simulator's
//     campaigns are sdcsmoke -backend sim's.
//
//   - metrics: scrape GET /metrics after a solve and require the Prometheus
//     exposition to carry the key series of every layer — serve latency
//     histogram, cache counters, breaker-state gauge, and the
//     core/engine/machine/solver series flowing through the shared registry.
//
//   - refresh: drive the values-only streaming path — register once, then
//     step a sequence of PATCH /v1/systems/{id} value drifts; the ID stays
//     stable while the values generation increments and the warm prepared
//     pipelines refresh in place; every step's solve is verified against the
//     exact all-ones answer and prepared_refresh_total on /metrics must
//     advance.
//
//   - tune: boot with the autotuner armed and a crash-safe state directory,
//     register, require GET /v1/systems/{id}/tune to carry a race decision
//     with tune_races_total >= 1, kill -9, restart on the same state
//     directory and require the same decision (its winner's strategy and
//     preconditioner) recovered from the WAL without re-racing (the new
//     process's tune_races_total stays 0).
//
//   - cluster: boot three shards behind one ipurouterd (replica factor 2)
//     and run four steps against that fleet, in order. Placement: a
//     registration through the router lands on a full replica set. Shard
//     kill: under sustained load a seeded fault.Chaos campaign kill -9s a
//     replica holder, which restarts empty; the reconciler must re-register
//     the system onto it within 15 s, with >=99% availability and zero wrong
//     answers. Drain: gracefully remove a replica holder with solves in
//     flight; none may fail and the placement must migrate off it. Metrics:
//     the router's /metrics carries every cluster_* series. The steps share
//     the fleet and the registered system, so they are one phase.
//
//     servesmoke                            # builds ipuserved -race itself
//     servesmoke -server bin/ipuserved -router bin/ipurouterd  # prebuilt (race-enabled) binaries
//     servesmoke -phases all                # every phase against one build of each daemon
//     servesmoke -phases serve,chaos        # a chosen subset, in the order given
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/fault"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tune"
)

const (
	gen  = "poisson3d:8" // small enough to boot fast, real enough to converge
	rows = 512           // rows of gen
)

// The cluster phase's shard-kill campaign: one seeded kill -9 / restart cycle.
const (
	shardKills = 1
	chaosSeed  = 42
)

// env is what every phase runs against: a scratch directory and the daemon
// binaries (router is empty unless a selected phase needs it).
type env struct{ dir, server, router string }

type phase struct {
	name   string
	run    func(env) error
	router bool // needs ipurouterd
}

// phases lists every phase in the order "all" runs it.
var phases = []phase{
	{"serve", servePhase, false},
	{"restart", killRestartPhase, false},
	{"chaos", chaosPhases, false},
	{"metrics", metricsPhase, false},
	{"refresh", refreshPhase, false},
	{"tune", tunePhase, false},
	{"cluster", clusterPhase, true},
}

func main() {
	server := flag.String("server", "", "prebuilt ipuserved binary (default: build -race)")
	router := flag.String("router", "", "prebuilt ipurouterd binary (default: build -race if a selected phase needs it)")
	names := flag.String("phases", "serve,restart", "comma-separated phases to run, or all: "+phaseNames())
	flag.Parse()
	selected, err := selectPhases(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(env{server: *server, router: *router}, selected); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func phaseNames() string {
	names := make([]string, len(phases))
	for i, p := range phases {
		names[i] = p.name
	}
	return strings.Join(names, ",")
}

// selectPhases resolves a -phases value, keeping the order given.
func selectPhases(names string) ([]phase, error) {
	if names == "all" {
		return phases, nil
	}
	var selected []phase
	for _, name := range strings.Split(names, ",") {
		i := slices.IndexFunc(phases, func(p phase) bool { return p.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown phase %q (phases: %s)", name, phaseNames())
		}
		selected = append(selected, phases[i])
	}
	return selected, nil
}

// run builds each daemon the selection needs once, with -race, unless a
// prebuilt binary was given, then runs the phases in order.
func run(e env, selected []phase) error {
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e.dir = dir

	if e.server == "" {
		e.server = filepath.Join(dir, "ipuserved")
		if err := buildRace(e.server, "./cmd/ipuserved"); err != nil {
			return err
		}
	}
	if e.router == "" && slices.ContainsFunc(selected, func(p phase) bool { return p.router }) {
		e.router = filepath.Join(dir, "ipurouterd")
		if err := buildRace(e.router, "./cmd/ipurouterd"); err != nil {
			return err
		}
	}
	for _, p := range selected {
		if err := p.run(e); err != nil {
			return fmt.Errorf("%s phase: %w", p.name, err)
		}
	}
	return nil
}

func buildRace(out, pkg string) error {
	build := exec.Command("go", "build", "-race", "-o", out, pkg)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building %s: %w", pkg, err)
	}
	return nil
}

// chaosPhases is the service-level campaign followed by the device-level
// one on the native backend serving runs: bit flips and exchange corruption
// inside the solve, guarded by ABFT; zero silent escapes allowed.
func chaosPhases(e env) error {
	if err := chaosPhase(e); err != nil {
		return err
	}
	if err := faultPhase(e); err != nil {
		return fmt.Errorf("device faults: %w", err)
	}
	return nil
}

// proc is one running daemon with its discovered base URL.
type proc struct {
	cmd  *exec.Cmd
	base string
}

// startServer boots a daemon binary (ipuserved or ipurouterd, which share the
// -addr/-port-file flags) with the given extra flags and waits for its port
// file. An -addr in extra overrides the random port, since the later flag
// wins.
func startServer(dir, bin, tag string, extra ...string) (*proc, error) {
	portFile := filepath.Join(dir, "port-"+tag)
	_ = os.Remove(portFile)
	args := append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := waitForPort(portFile, 15*time.Second)
	if err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	return &proc{cmd: cmd, base: "http://" + addr}, nil
}

// drain sends SIGTERM and waits for a clean exit.
func (p *proc) drain() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exit: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server did not drain within 30s")
	}
}

// kill sends SIGKILL — the crash the state directory must survive.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// register registers the test system and returns its info.
func (p *proc) register() (systemInfo, error) {
	var info systemInfo
	err := postJSON(p.base+"/v1/systems", map[string]any{"gen": gen}, &info)
	return info, err
}

type systemInfo struct {
	ID         string `json:"id"`
	N          int    `json:"n"`
	Solver     string `json:"solver"`
	Generation int    `json:"generation"`
	Tuned      bool   `json:"tuned"`
}

type solveResult struct {
	Converged bool      `json:"converged"`
	RelRes    float64   `json:"relRes"`
	X         []float64 `json:"x"`
	Error     string    `json:"error"`
}

// servePhase is the original smoke: concurrent batched solves against a
// plain server, all verified against the exact all-ones solution.
func servePhase(e env) error {
	srv, err := startServer(e.dir, e.server, "serve")
	if err != nil {
		return err
	}
	defer srv.kill()

	for _, path := range []string{"/healthz", "/readyz"} {
		if err := getJSON(srv.base+path, &struct{}{}); err != nil {
			return err
		}
	}

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if info.N != rows {
		return fmt.Errorf("registered %d rows, want %d", info.N, rows)
	}
	fmt.Printf("servesmoke: registered %s (%d rows, solver %s)\n", info.ID, info.N, info.Solver)

	const clients = 3
	const batchPerClient = 2
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var resp struct {
				Results []solveResult `json:"results"`
			}
			req := map[string]any{"batch": onesBatch(batchPerClient)}
			if err := postJSON(srv.base+"/v1/systems/"+info.ID+"/solve", req, &resp); err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if len(resp.Results) != batchPerClient {
				errs <- fmt.Errorf("client %d: %d results", c, len(resp.Results))
				return
			}
			for i, r := range resp.Results {
				if err := checkOnes(r); err != nil {
					errs <- fmt.Errorf("client %d result %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	var st struct {
		CacheHits uint64 `json:"cacheHits"`
		Solved    uint64 `json:"solved"`
		Verified  uint64 `json:"verified"`
	}
	if err := getJSON(srv.base+"/v1/stats", &st); err != nil {
		return err
	}
	if st.CacheHits == 0 {
		return fmt.Errorf("stats report no cache hits (solved=%d)", st.Solved)
	}
	if st.Solved != clients*batchPerClient {
		return fmt.Errorf("stats report %d solves, want %d", st.Solved, clients*batchPerClient)
	}
	if st.Verified != st.Solved {
		return fmt.Errorf("stats report %d verified of %d solved", st.Verified, st.Solved)
	}
	fmt.Printf("servesmoke: %d solves, %d cache hits, all residual-verified\n", st.Solved, st.CacheHits)
	return srv.drain()
}

// killRestartPhase registers against a crash-safe server, records a warm
// solve, kills the process with SIGKILL, restarts it on the same state
// directory and requires the recovered system to serve a bit-identical
// answer.
func killRestartPhase(e env) error {
	stateDir := filepath.Join(e.dir, "state")

	srv, err := startServer(e.dir, e.server, "kill1", "-state-dir", stateDir)
	if err != nil {
		return err
	}
	defer srv.kill()
	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	before, err := solveOnes(srv.base, info.ID)
	if err != nil {
		return fmt.Errorf("solve before kill: %w", err)
	}
	srv.kill()
	fmt.Printf("servesmoke: killed -9 with %s registered\n", info.ID)

	srv2, err := startServer(e.dir, e.server, "kill2", "-state-dir", stateDir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer srv2.kill()
	var systems struct {
		Systems []systemInfo `json:"systems"`
	}
	if err := getJSON(srv2.base+"/v1/systems", &systems); err != nil {
		return err
	}
	if len(systems.Systems) != 1 || systems.Systems[0].ID != info.ID {
		return fmt.Errorf("recovered systems %+v, want exactly %s", systems.Systems, info.ID)
	}
	after, err := solveOnes(srv2.base, info.ID)
	if err != nil {
		return fmt.Errorf("solve after restart: %w", err)
	}
	if err := bitIdentical(after.X, before.X); err != nil {
		return fmt.Errorf("across restart: %w", err)
	}
	fmt.Printf("servesmoke: restart recovered %s from WAL, solve bit-identical\n", info.ID)
	return srv2.drain()
}

// chaosPhase reruns serving under a seeded fault campaign: wrong answers are
// forbidden, availability must stay >=99%, and the crash-safe registry must
// still recover after a mid-campaign kill -9.
func chaosPhase(e env) error {
	stateDir := filepath.Join(e.dir, "chaos-state")
	// Write the campaign through the config file so the smoke also exercises
	// the serve.chaos block; retries are sized so exhausting them under a
	// 20% rate is a ~1e-5 event per request.
	cfgPath, err := writeConfig(e.dir, "chaos.json", map[string]any{
		"solver": map[string]any{
			"type": "pbicgstab", "maxIterations": 400, "tolerance": 1e-10,
			"preconditioner": map[string]any{"type": "ilu0"},
		},
		"serve": map[string]any{
			"retryMax":    6,
			"retryBaseMs": 1,
			"chaos": map[string]any{
				"seed": 42, "rate": 0.2, "stallMs": 2,
				"kinds": []string{"replica-crash", "replica-stall", "breakdown", "host-error"},
			},
		},
	})
	if err != nil {
		return err
	}

	srv, err := startServer(e.dir, e.server, "chaos1", "-config", cfgPath, "-state-dir", stateDir)
	if err != nil {
		return err
	}
	defer srv.kill()
	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}

	const clients = 4
	const perClient = 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed, wrong int
	var witness []float64 // one verified answer to compare across restart
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				r, err := solveOnes(srv.base, info.ID)
				mu.Lock()
				switch {
				case errors.Is(err, errWrong):
					wrong++
					fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
				case err != nil:
					failed++
				case witness == nil:
					witness = r.X
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total := clients * perClient
	if wrong != 0 {
		return fmt.Errorf("%d wrong answers served under chaos", wrong)
	}
	if avail := float64(total-failed) / float64(total); avail < 0.99 {
		return fmt.Errorf("availability %.1f%% under chaos (%d/%d failed), want >=99%%",
			100*avail, failed, total)
	}

	var st struct {
		Solved       uint64 `json:"solved"`
		Retries      uint64 `json:"retries"`
		Panics       uint64 `json:"panics"`
		Quarantined  uint64 `json:"quarantined"`
		Verified     uint64 `json:"verified"`
		VerifyFailed uint64 `json:"verifyFailed"`
	}
	if err := getJSON(srv.base+"/v1/stats", &st); err != nil {
		return err
	}
	if st.Retries == 0 {
		return fmt.Errorf("campaign at rate 0.2 over %d solves recorded no retries", total)
	}
	if st.VerifyFailed != 0 {
		return fmt.Errorf("%d answers failed residual verification", st.VerifyFailed)
	}
	fmt.Printf("servesmoke: chaos: %d/%d served, %d retries, %d panics, %d quarantined\n",
		total-failed, total, st.Retries, st.Panics, st.Quarantined)

	// Kill mid-campaign and recover.
	srv.kill()
	srv2, err := startServer(e.dir, e.server, "chaos2", "-config", cfgPath, "-state-dir", stateDir)
	if err != nil {
		return fmt.Errorf("restart under chaos: %w", err)
	}
	defer srv2.kill()
	r, err := solveOnes(srv2.base, info.ID)
	if err != nil {
		return fmt.Errorf("solve after chaos restart: %w", err)
	}
	if witness != nil {
		if err := bitIdentical(r.X, witness); err != nil {
			return fmt.Errorf("across chaos restart: %w", err)
		}
	}
	fmt.Printf("servesmoke: chaos restart recovered %s, solve bit-identical\n", info.ID)
	return srv2.drain()
}

// faultPhase boots the server with a device-level fault campaign and ABFT
// armed, both set in its config file, fires solves, and requires: no wrong
// answer ever served, the ABFT checks actually running, and zero SDC escapes
// — the sdc_escapes_total series must stay 0 even while faults corrupt tile
// memory and exchange payloads inside the solves.
func faultPhase(e env) error {
	// CG+Jacobi with the checkpoint/restart policy: under this campaign seed
	// the checksum SpMV detects the corruption in-loop and the solve recovers
	// through restarts — deterministically, so every request must be served
	// and served right.
	cfgPath, err := writeConfig(e.dir, "fault.json", map[string]any{
		"solver": map[string]any{
			"type": "cg", "maxIterations": 600, "tolerance": 1e-8, "abft": true,
			"preconditioner": map[string]any{"type": "jacobi"},
		},
		"recovery": map[string]any{"interval": 5, "maxRestarts": 25},
		"fault": map[string]any{
			"seed": 6, "rate": 0.0008, "kinds": []string{"bit-flip", "exchange-corrupt"},
		},
	})
	if err != nil {
		return err
	}
	srv, err := startServer(e.dir, e.server, "fault", "-config", cfgPath)
	if err != nil {
		return err
	}
	defer srv.kill()
	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}

	const total = 6
	served, wrong := 0, 0
	for k := 0; k < total; k++ {
		_, err := solveOnes(srv.base, info.ID)
		if err != nil && !errors.Is(err, errWrong) {
			// A typed rejection (breakdown past the restart budget) is an
			// honest failure, not a wrong answer.
			continue
		}
		served++
		if err != nil {
			wrong++
			fmt.Fprintf(os.Stderr, "servesmoke: under faults: %v\n", err)
		}
	}
	if wrong != 0 {
		return fmt.Errorf("%d wrong answers served under the device fault campaign", wrong)
	}
	if served != total {
		return fmt.Errorf("%d/%d solves served; this seed recovers deterministically, so all must", served, total)
	}

	var st struct {
		SDCEscapes uint64 `json:"sdcEscapes"`
		Verified   uint64 `json:"verified"`
	}
	if err := getJSON(srv.base+"/v1/stats", &st); err != nil {
		return err
	}
	if st.SDCEscapes != 0 {
		return fmt.Errorf("sdcEscapes = %d, want 0: corruption escaped the in-loop ABFT guards", st.SDCEscapes)
	}
	body, err := scrape(srv.base)
	if err != nil {
		return err
	}
	if !strings.Contains(body, "abft_checks_total") {
		return fmt.Errorf("/metrics missing abft_checks_total: ABFT not armed")
	}
	if !strings.Contains(body, `abft_detections_total{kernel="spmv"}`) {
		return fmt.Errorf("/metrics missing spmv detections: campaign seed no longer trips the checksum")
	}
	if !strings.Contains(body, "sdc_escapes_total 0") {
		return fmt.Errorf("/metrics sdc_escapes_total is not 0")
	}
	fmt.Printf("servesmoke: fault campaign: %d/%d served, 0 wrong, 0 SDC escapes\n", served, total)
	return srv.drain()
}

// metricsPhase boots a plain server, drives one solve, scrapes GET /metrics
// and requires the exposition to carry the key series of every instrumented
// layer: the serve request histogram and cache counters, the breaker-state
// gauge, and the pipeline/engine/machine/solver series that flow through the
// service's shared telemetry registry.
func metricsPhase(e env) error {
	srv, err := startServer(e.dir, e.server, "metrics")
	if err != nil {
		return err
	}
	defer srv.kill()

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if _, err := solveOnes(srv.base, info.ID); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	body, err := scrape(srv.base)
	if err != nil {
		return err
	}
	if err := requireSeries(body,
		"# TYPE serve_solve_latency_seconds histogram",
		"serve_solve_latency_seconds_bucket",
		"serve_cache_hits_total",
		"serve_cache_misses_total",
		"serve_breaker_state{system=",
		"serve_queue_depth",
		"core_solves_total",
		"core_phase_seconds_bucket",
		"core_backend{backend=",
		"engine_supersteps_total",
		"ipu_compute_cycles_total",
		"solver_runs_total{solver=",
	); err != nil {
		return err
	}
	fmt.Printf("servesmoke: metrics: %d bytes of exposition, all key series present\n", len(body))
	return srv.drain()
}

// refreshPhase drives the values-only streaming path end to end: register
// once, then step a sequence of diagonal drifts through
// PATCH /v1/systems/{id}. The ID stays stable across every update — clients
// keep solving against the handle they registered — while the values
// generation increments and the warm prepared pipelines refresh in place, so
// after the registration's single cold prepare the cache-miss counter must
// never move again. Every step's solve is verified against the exact
// all-ones answer (the server rebuilds b = A*1 from the refreshed values)
// and the /metrics exposition must show prepared_refresh_total advancing.
func refreshPhase(e env) error {
	srv, err := startServer(e.dir, e.server, "refresh")
	if err != nil {
		return err
	}
	defer srv.kill()

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if _, err := solveOnes(srv.base, info.ID); err != nil {
		return fmt.Errorf("cold solve: %w", err)
	}

	// Mirror the registered matrix locally so the drifted diagonals are
	// deterministic; scaling the diagonal up keeps the system diagonally
	// dominant, so every generation still converges.
	m, err := sparse.GenByName(gen)
	if err != nil {
		return err
	}
	id := info.ID
	const steps = 3
	refreshed := 0
	for step := 1; step <= steps; step++ {
		for i := range m.Diag {
			m.Diag[i] *= 1 + 0.003*float64(step)*float64(1+i%5)
		}
		var up struct {
			ID         string `json:"id"`
			Generation int    `json:"generation"`
			Refreshed  int    `json:"refreshed"`
		}
		if err := doJSON(http.MethodPatch, srv.base+"/v1/systems/"+id, map[string]any{"diag": m.Diag}, &up); err != nil {
			return fmt.Errorf("update step %d: %w", step, err)
		}
		if up.ID != id {
			return fmt.Errorf("update step %d moved the ID %q -> %q, want it stable", step, id, up.ID)
		}
		if up.Generation != info.Generation+step {
			return fmt.Errorf("update step %d reports generation %d, want %d",
				step, up.Generation, info.Generation+step)
		}
		refreshed += up.Refreshed
		if _, err := solveOnes(srv.base, id); err != nil {
			return fmt.Errorf("solve step %d: %w", step, err)
		}
	}
	if refreshed == 0 {
		return fmt.Errorf("%d update steps refreshed no warm replicas", steps)
	}

	var st struct {
		Refreshed   uint64 `json:"refreshed"`
		CacheMisses uint64 `json:"cacheMisses"`
	}
	if err := getJSON(srv.base+"/v1/stats", &st); err != nil {
		return err
	}
	if st.Refreshed == 0 {
		return fmt.Errorf("stats report no refreshed replicas after %d updates", steps)
	}
	if st.CacheMisses != 1 {
		return fmt.Errorf("stats report %d cache misses, want only the registration's: updates must reuse the prepared pipelines", st.CacheMisses)
	}

	total, err := scrapeCounter(srv.base, "prepared_refresh_total")
	if err != nil {
		return err
	}
	if total <= 0 {
		return fmt.Errorf("/metrics prepared_refresh_total = %g after %d updates, want > 0", total, steps)
	}
	fmt.Printf("servesmoke: refresh: %d value updates over %s, %d replicas refreshed in place, 1 cold prepare\n",
		steps, gen, refreshed)
	return srv.drain()
}

// tunePhase exercises the autotuner end to end against a crash-safe server:
// a registration with serve.tune enabled must race candidates and serve the
// winner, the decision must be readable at GET /v1/systems/{id}/tune, and — the part
// that matters — it must survive kill -9: the restarted process recovers the
// decision from the WAL and serves the tuned configuration without racing
// again (its tune_races_total stays 0).
func tunePhase(e env) error {
	stateDir := filepath.Join(e.dir, "tune-state")
	// The configuration the daemon uses without a config file, tuner armed.
	cfg := config.Default()
	cfg.Serve = &config.ServeConfig{Tune: &config.TuneConfig{Enabled: true, BudgetMs: 2000}}
	cfgPath, err := writeConfig(e.dir, "tune.json", cfg)
	if err != nil {
		return err
	}
	srv, err := startServer(e.dir, e.server, "tune1", "-config", cfgPath, "-state-dir", stateDir)
	if err != nil {
		return err
	}
	defer srv.kill()

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if !info.Tuned {
		return fmt.Errorf("registration with the tuner armed reports tuned=false")
	}
	type tuneReply struct {
		ID   string `json:"id"`
		Tune *struct {
			Winner  tune.Candidate    `json:"winner"`
			Speedup float64           `json:"speedup"`
			Races   []json.RawMessage `json:"races"`
		} `json:"tune"`
	}
	var td tuneReply
	if err := getJSON(srv.base+"/v1/systems/"+info.ID+"/tune", &td); err != nil {
		return err
	}
	if td.Tune == nil || len(td.Tune.Races) == 0 {
		return fmt.Errorf("GET tune returned no decision after a tuned registration")
	}
	if td.Tune.Speedup < 1 {
		return fmt.Errorf("tuned speedup %.3f < 1: the default must always be raced in full", td.Tune.Speedup)
	}
	if _, err := solveOnes(srv.base, info.ID); err != nil {
		return fmt.Errorf("tuned solve: %w", err)
	}
	races, err := scrapeCounter(srv.base, "tune_races_total")
	if err != nil {
		return err
	}
	if races < 1 {
		return fmt.Errorf("tune_races_total = %g after a tuned registration, want >= 1", races)
	}
	srv.kill()
	fmt.Printf("servesmoke: tune: raced %d candidates (%.2fx), killed -9\n",
		len(td.Tune.Races), td.Tune.Speedup)

	srv2, err := startServer(e.dir, e.server, "tune2", "-config", cfgPath, "-state-dir", stateDir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer srv2.kill()
	var td2 tuneReply
	if err := getJSON(srv2.base+"/v1/systems/"+info.ID+"/tune", &td2); err != nil {
		return fmt.Errorf("tune decision after restart: %w", err)
	}
	if td2.Tune == nil || len(td2.Tune.Races) != len(td.Tune.Races) {
		return fmt.Errorf("restart lost the tune decision (got %+v)", td2.Tune)
	}
	if td2.Tune.Winner != td.Tune.Winner {
		return fmt.Errorf("restart changed the winner %v -> %v", td.Tune.Winner, td2.Tune.Winner)
	}
	races2, err := scrapeCounter(srv2.base, "tune_races_total")
	if err != nil {
		return err
	}
	if races2 != 0 {
		return fmt.Errorf("restart re-raced (%g races): the WAL decision must be reused", races2)
	}
	if _, err := solveOnes(srv2.base, info.ID); err != nil {
		return fmt.Errorf("tuned solve after restart: %w", err)
	}
	fmt.Printf("servesmoke: tune: restart recovered the decision from WAL, 0 re-races\n")
	return srv2.drain()
}

// topology is the router's GET /v1/cluster: system ID -> replica shard URLs.
type topology struct {
	Systems map[string][]string `json:"systems"`
}

type routerStats struct {
	Failovers       uint64 `json:"failovers"`
	Reregistrations uint64 `json:"reregistrations"`
}

// clusterPhase boots three shards behind a router (replica factor 2) and runs
// placement, shard-kill chaos, drain and the router /metrics check against
// that one fleet, in that order: each step works on the system the placement
// step registered. The shards have no state directories, so a killed shard
// restarts EMPTY and recovery must come from the router's reconciler
// re-importing the registration, not from the shard's own WAL.
func clusterPhase(e env) error {
	var shards []*proc
	defer func() {
		for _, s := range shards {
			s.kill()
		}
	}()
	urls := make([]string, 3)
	for i := range urls {
		s, err := startServer(e.dir, e.server, fmt.Sprintf("shard%d", i))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		shards = append(shards, s)
		urls[i] = s.base
	}

	// Tight probe/reconcile cadence so recovery is fast enough to observe
	// inside a smoke test.
	cfgPath, err := writeConfig(e.dir, "cluster.json", map[string]any{
		"solver": map[string]any{
			"type": "pbicgstab", "maxIterations": 400, "tolerance": 1e-10,
			"preconditioner": map[string]any{"type": "ilu0"},
		},
		"cluster": map[string]any{
			"probeIntervalMs": 100, "probeTimeoutMs": 1000,
			"reconcileIntervalMs": 200,
			"breakerThreshold":    2, "breakerCooldownMs": 500,
		},
	})
	if err != nil {
		return err
	}
	rt, err := startServer(e.dir, e.router, "router",
		"-config", cfgPath, "-shards", strings.Join(urls, ","), "-replicas", "2")
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	defer rt.kill()

	// Placement: the registration lands on a full replica set.
	info, err := rt.register()
	if err != nil {
		return fmt.Errorf("placement: register: %w", err)
	}
	if info.N != rows {
		return fmt.Errorf("placement: registered %d rows, want %d", info.N, rows)
	}
	var topo topology
	if err := getJSON(rt.base+"/v1/cluster", &topo); err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	if holders := topo.Systems[info.ID]; len(holders) != 2 {
		return fmt.Errorf("placement: replica set %v, want 2 shards", holders)
	}
	if _, err := solveOnes(rt.base, info.ID); err != nil {
		return fmt.Errorf("placement: first solve: %w", err)
	}
	fmt.Printf("servesmoke: cluster: %s placed on %v, first solve verified\n", info.ID, topo.Systems[info.ID])

	if err := shardKill(e, rt.base, shards, info.ID); err != nil {
		return fmt.Errorf("shard kill: %w", err)
	}
	if err := drainShard(rt.base, info.ID); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	body, err := scrape(rt.base)
	if err != nil {
		return err
	}
	if err := requireSeries(body,
		"cluster_routed_total{shard=",
		"cluster_failovers_total",
		"cluster_reregistrations_total",
		"cluster_shard_latency_seconds_bucket",
		"cluster_breaker_state{shard=",
		"cluster_shard_health{shard=",
	); err != nil {
		return err
	}
	fmt.Printf("servesmoke: cluster: %d bytes of router exposition, all cluster series present\n", len(body))
	return nil
}

// shardKill runs sustained load through the router while a seeded shard-kill
// campaign murders replica-holding shards; each victim restarts empty on its
// old address (replacing its entry in shards) and the reconciler must repair
// placement. Availability >=99%, zero wrong answers.
func shardKill(e env, base string, shards []*proc, id string) error {
	chaos := fault.NewChaos(fault.ChaosPlan{
		Seed:      chaosSeed,
		Rate:      0.7,
		Kinds:     []fault.ChaosKind{fault.ChaosShardKill},
		MaxEvents: shardKills,
	})

	const clients = 4
	stop := make(chan struct{})
	var mu sync.Mutex
	var total, failed, wrong int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := solveOnes(base, id)
				mu.Lock()
				total++
				switch {
				case errors.Is(err, errWrong):
					wrong++
					fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
				case err != nil:
					failed++
					fmt.Fprintf(os.Stderr, "servesmoke: solve failed: %v\n", err)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	stopLoad := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopLoad()

	// Pacing is count-driven, not wall-clock: a race-built shard solve takes
	// whatever it takes, so each campaign step waits for a quota of completed
	// requests rather than sleeping a fixed interval.
	waitMore := func(n int) error {
		mu.Lock()
		target := total + n
		mu.Unlock()
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			mu.Lock()
			done := total >= target
			mu.Unlock()
			if done {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("load stalled: fewer than %d requests completed in 2m", n)
	}

	for k := 0; k < shardKills; k++ {
		if err := waitMore(8); err != nil { // load before the kill
			return err
		}

		// The campaign draws the victim among the system's current replica
		// holders, so every kill is one the router must route around.
		var topo topology
		if err := getJSON(base+"/v1/cluster", &topo); err != nil {
			return err
		}
		victim := -1
		for victim < 0 {
			for _, url := range topo.Systems[id] {
				if chaos.Decide(url).Kind == fault.ChaosShardKill {
					victim = slices.IndexFunc(shards, func(s *proc) bool { return s.base == url })
					break
				}
			}
		}
		addr := strings.TrimPrefix(shards[victim].base, "http://")
		fmt.Printf("servesmoke: cluster: kill -9 shard %d (%s) [cycle %d/%d]\n", victim, addr, k+1, shardKills)
		shards[victim].kill()

		if err := waitMore(8); err != nil { // load against the degraded fleet
			return err
		}

		s, err := startServer(e.dir, e.server, fmt.Sprintf("shard%d", victim), "-addr", addr)
		if err != nil {
			return fmt.Errorf("restart shard %d: %w", victim, err)
		}
		shards[victim] = s
		fmt.Printf("servesmoke: cluster: shard %d restarted empty on %s\n", victim, addr)

		// The reconciler must re-import the registration onto the restarted
		// shard: wait until the replica set is full again.
		deadline := time.Now().Add(15 * time.Second)
		repaired := false
		for !repaired && time.Now().Before(deadline) {
			var st routerStats
			var topo topology
			repaired = getJSON(base+"/v1/stats", &st) == nil &&
				getJSON(base+"/v1/cluster", &topo) == nil &&
				st.Reregistrations > 0 && len(topo.Systems[id]) == 2
			if !repaired {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if !repaired {
			return fmt.Errorf("reconciler did not repair placement within 15s of restart")
		}
	}
	if err := waitMore(8); err != nil { // load after recovery
		return err
	}
	stopLoad()

	if wrong != 0 {
		return fmt.Errorf("%d wrong answers served under shard-kill chaos", wrong)
	}
	if total < 20 {
		return fmt.Errorf("only %d requests completed — load too thin to mean anything", total)
	}
	avail := float64(total-failed) / float64(total)
	if avail < 0.99 {
		return fmt.Errorf("availability %.2f%% under shard kill (%d/%d failed), want >=99%%",
			100*avail, failed, total)
	}

	var st routerStats
	if err := getJSON(base+"/v1/stats", &st); err != nil {
		return err
	}
	if st.Failovers == 0 && failed == 0 {
		fmt.Fprintln(os.Stderr, "servesmoke: note: no failovers recorded (kill window missed the load)")
	}
	fmt.Printf("servesmoke: cluster: %d/%d served (%.2f%%), %d failovers, %d re-registrations, %d kill events\n",
		total-failed, total, 100*avail, st.Failovers, st.Reregistrations, chaos.Count(fault.ChaosShardKill))
	return nil
}

// drainShard gracefully removes a replica-holding shard while solves are in
// flight: nothing may fail, and the placement must migrate off the shard.
func drainShard(base, id string) error {
	var topo topology
	if err := getJSON(base+"/v1/cluster", &topo); err != nil {
		return err
	}
	holders := topo.Systems[id]
	if len(holders) == 0 {
		return fmt.Errorf("no replica set to drain")
	}
	victim := holders[0]

	// In-flight load across the drain.
	const inflight = 6
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := solveOnes(base, id); err != nil {
				errs <- fmt.Errorf("in-flight solve %d: %w", i, err)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond)

	var rep struct {
		Shard    string `json:"shard"`
		Migrated int    `json:"migrated"`
		Inflight int64  `json:"inflight"`
	}
	if err := postJSON(base+"/v1/cluster/drain", map[string]any{"shard": victim}, &rep); err != nil {
		return fmt.Errorf("drain %s: %w", victim, err)
	}
	if rep.Inflight != 0 {
		return fmt.Errorf("drain returned with %d requests still in flight", rep.Inflight)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	if err := getJSON(base+"/v1/cluster", &topo); err != nil {
		return err
	}
	if slices.Contains(topo.Systems[id], victim) {
		return fmt.Errorf("drained shard %s still in replica set %v", victim, topo.Systems[id])
	}
	if _, err := solveOnes(base, id); err != nil {
		return fmt.Errorf("solve after drain: %w", err)
	}
	if err := postJSON(base+"/v1/cluster/undrain", map[string]any{"shard": victim}, nil); err != nil {
		return fmt.Errorf("undrain %s: %w", victim, err)
	}
	fmt.Printf("servesmoke: cluster: drained %s (migrated %d), zero failed in-flight, cluster still serving\n",
		victim, rep.Migrated)
	return nil
}

// errWrong marks a reply that came back but is not the exact all-ones
// solution, as against a request the service failed or refused to answer.
var errWrong = errors.New("wrong answer")

// checkOnes requires a converged reply carrying the all-ones solution — the
// exact answer for b = A*1 with A the registered generator — in every row.
func checkOnes(r solveResult) error {
	if r.Error != "" || !r.Converged {
		return fmt.Errorf("%w: converged=%v err=%q", errWrong, r.Converged, r.Error)
	}
	if len(r.X) != rows {
		return fmt.Errorf("%w: %d solution entries, want %d", errWrong, len(r.X), rows)
	}
	for j, v := range r.X {
		if !(math.Abs(v-1) <= 1e-6) { // written so NaN fails too
			return fmt.Errorf("%w: x[%d]=%g, want 1", errWrong, j, v)
		}
	}
	return nil
}

// solveOnes solves the registered system for b = A*1 and checks the reply
// with checkOnes.
func solveOnes(base, id string) (solveResult, error) {
	var r solveResult
	if err := postJSON(base+"/v1/systems/"+id+"/solve", map[string]any{"rhs": "ones"}, &r); err != nil {
		return r, err
	}
	return r, checkOnes(r)
}

// bitIdentical compares two answers checkOnes accepted (so equally long).
func bitIdentical(x, want []float64) error {
	for i := range x {
		if x[i] != want[i] {
			return fmt.Errorf("x[%d] differs: %g vs %g", i, x[i], want[i])
		}
	}
	return nil
}

// onesBatch builds k copies of the right-hand side whose exact solution is
// the all-ones vector: b = A*1, with A regenerated locally from the same
// generator spec the server was registered with.
func onesBatch(k int) [][]float64 {
	m, err := sparse.GenByName(gen)
	if err != nil || m.N != rows {
		panic(fmt.Sprintf("generator mismatch: %v", err))
	}
	ones := make([]float64, rows)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, rows)
	m.MulVec(ones, b)
	out := make([][]float64, k)
	for i := range out {
		out[i] = b
	}
	return out
}

// scrape reads a daemon's Prometheus exposition, failing on any status but
// 200, a non-text content type or a short read.
func scrape(base string) (string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return "", fmt.Errorf("/metrics content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("/metrics: %w", err)
	}
	return string(body), nil
}

// requireSeries fails unless the exposition carries every fragment.
func requireSeries(body string, frags ...string) error {
	for _, frag := range frags {
		if !strings.Contains(body, frag) {
			return fmt.Errorf("/metrics missing %q", frag)
		}
	}
	return nil
}

// scrapeCounter fetches /metrics and extracts one unlabeled counter.
func scrapeCounter(base, name string) (float64, error) {
	body, err := scrape(base)
	if err != nil {
		return 0, err
	}
	return counterValue(body, name)
}

// counterValue extracts an unlabeled counter's value from a Prometheus text
// exposition.
func counterValue(body, name string) (float64, error) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				return 0, fmt.Errorf("/metrics %s: unparseable value %q", name, rest)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("/metrics missing %s", name)
}

// writeConfig writes a daemon config file into dir and returns its path.
func writeConfig(dir, name string, cfg any) (string, error) {
	buf, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, buf, 0o644)
}

func waitForPort(portFile string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			return string(bytes.TrimSpace(b)), nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", fmt.Errorf("process did not report a port within %s", timeout)
}

// doJSON sends body (if any) as JSON and decodes a 2xx reply into out (if
// any); any other status is an error carrying the reply text.
func doJSON(method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %d %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func postJSON(url string, body, out any) error { return doJSON(http.MethodPost, url, body, out) }

func getJSON(url string, out any) error { return doJSON(http.MethodGet, url, nil, out) }
