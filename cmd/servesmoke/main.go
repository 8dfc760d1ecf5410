// Command servesmoke is the end-to-end smoke test of the solver service. It
// boots a real ipuserved process on a random port per phase and drives the
// phases named by -phases (default serve,restart; "all" runs every one):
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
//     device-level campaign (-fault-*) on the native AND simulator backends —
//     bit flips and exchange corruption inside the solves, ABFT armed — and
//     require every answer right, in-loop checksum detections firing, and
//     sdc_escapes_total staying 0.
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
//     directory and require the decision recovered from the WAL without
//     re-racing (the new process's tune_races_total stays 0).
//
//     servesmoke -server bin/ipuserved      # use a prebuilt (race-enabled) binary
//     servesmoke                            # builds ipuserved -race itself
//     servesmoke -phases all                # every phase against one build
//     servesmoke -phases serve,chaos        # a chosen subset, in the order given
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipusparse/internal/sparse"
)

const gen = "poisson3d:8" // 512 rows: small enough to boot fast, real enough to converge

type phase struct {
	name string
	run  func(dir, server string) error
}

// phases lists every phase in the order "all" runs it.
var phases = []phase{
	{"serve", servePhase},
	{"restart", killRestartPhase},
	{"chaos", chaosPhases},
	{"metrics", metricsPhase},
	{"refresh", refreshPhase},
	{"tune", tunePhase},
}

func main() {
	server := flag.String("server", "", "prebuilt ipuserved binary (default: build -race)")
	names := flag.String("phases", "serve,restart", "comma-separated phases to run, or all: "+phaseNames())
	flag.Parse()
	selected, err := selectPhases(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*server, selected); err != nil {
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

func run(server string, selected []phase) error {
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if server == "" {
		server = filepath.Join(dir, "ipuserved")
		build := exec.Command("go", "build", "-race", "-o", server, "./cmd/ipuserved")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building ipuserved: %w", err)
		}
	}
	for _, p := range selected {
		if err := p.run(dir, server); err != nil {
			return fmt.Errorf("%s phase: %w", p.name, err)
		}
	}
	return nil
}

// chaosPhases is the service-level campaign followed by the device-level
// campaign on both backends: the serving default (native) and the simulator —
// bit flips and exchange corruption inside the solve, guarded by ABFT; zero
// silent escapes allowed on either.
func chaosPhases(dir, server string) error {
	if err := chaosPhase(dir, server); err != nil {
		return err
	}
	for _, be := range []string{"native", "sim"} {
		if err := faultPhase(dir, server, be); err != nil {
			return fmt.Errorf("device faults (%s): %w", be, err)
		}
	}
	return nil
}

// proc is one running ipuserved with its discovered base URL.
type proc struct {
	cmd  *exec.Cmd
	base string
}

// startServer boots the binary with the given extra flags and waits for its
// port file.
func startServer(dir, server, tag string, extra ...string) (*proc, error) {
	portFile := filepath.Join(dir, "port-"+tag)
	_ = os.Remove(portFile)
	args := append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, extra...)
	cmd := exec.Command(server, args...)
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
func servePhase(dir, server string) error {
	srv, err := startServer(dir, server, "serve")
	if err != nil {
		return err
	}
	defer srv.kill()

	if err := getOK(srv.base + "/healthz"); err != nil {
		return err
	}
	if err := getOK(srv.base + "/readyz"); err != nil {
		return err
	}

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if info.N != 512 {
		return fmt.Errorf("registered %d rows, want 512", info.N)
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
			req := map[string]any{"batch": onesBatch(info.N, batchPerClient)}
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
func killRestartPhase(dir, server string) error {
	stateDir := filepath.Join(dir, "state")

	srv, err := startServer(dir, server, "kill1", "-state-dir", stateDir)
	if err != nil {
		return err
	}
	defer srv.kill()
	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	var before solveResult
	if err := postJSON(srv.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &before); err != nil {
		return fmt.Errorf("solve before kill: %w", err)
	}
	if err := checkOnes(before); err != nil {
		return fmt.Errorf("solve before kill: %w", err)
	}
	srv.kill()
	fmt.Printf("servesmoke: killed -9 with %s registered\n", info.ID)

	srv2, err := startServer(dir, server, "kill2", "-state-dir", stateDir)
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
	var after solveResult
	if err := postJSON(srv2.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &after); err != nil {
		return fmt.Errorf("solve after restart: %w", err)
	}
	if len(after.X) != len(before.X) {
		return fmt.Errorf("solution length changed across restart: %d vs %d", len(after.X), len(before.X))
	}
	for i := range after.X {
		if after.X[i] != before.X[i] {
			return fmt.Errorf("x[%d] differs across restart: %g vs %g", i, after.X[i], before.X[i])
		}
	}
	fmt.Printf("servesmoke: restart recovered %s from WAL, solve bit-identical\n", info.ID)
	return srv2.drain()
}

// chaosPhase reruns serving under a seeded fault campaign: wrong answers are
// forbidden, availability must stay >=99%, and the crash-safe registry must
// still recover after a mid-campaign kill -9.
func chaosPhase(dir, server string) error {
	stateDir := filepath.Join(dir, "chaos-state")
	// Write the campaign through the config file so the smoke also exercises
	// the serve.chaos block; retries are sized so exhausting them under a
	// 20% rate is a ~1e-5 event per request.
	cfgPath := filepath.Join(dir, "chaos.json")
	cfg := map[string]any{
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
	}
	buf, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfgPath, buf, 0o644); err != nil {
		return err
	}

	srv, err := startServer(dir, server, "chaos1", "-config", cfgPath, "-state-dir", stateDir)
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
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				var r solveResult
				err := postJSON(srv.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &r)
				mu.Lock()
				if err != nil {
					failed++
				} else if cerr := checkOnes(r); cerr != nil {
					wrong++
					fmt.Fprintf(os.Stderr, "servesmoke: WRONG ANSWER: %v\n", cerr)
				} else if witness == nil {
					witness = r.X
				}
				mu.Unlock()
			}
		}(c)
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
	srv2, err := startServer(dir, server, "chaos2", "-config", cfgPath, "-state-dir", stateDir)
	if err != nil {
		return fmt.Errorf("restart under chaos: %w", err)
	}
	defer srv2.kill()
	var r solveResult
	if err := postJSON(srv2.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &r); err != nil {
		return fmt.Errorf("solve after chaos restart: %w", err)
	}
	if err := checkOnes(r); err != nil {
		return fmt.Errorf("solve after chaos restart: %w", err)
	}
	if witness != nil {
		for i := range r.X {
			if r.X[i] != witness[i] {
				return fmt.Errorf("x[%d] differs across chaos restart: %g vs %g", i, r.X[i], witness[i])
			}
		}
	}
	fmt.Printf("servesmoke: chaos restart recovered %s, solve bit-identical\n", info.ID)
	return srv2.drain()
}

// faultPhase boots the server with a device-level fault campaign (-fault-*)
// and ABFT armed on the given backend, fires solves, and requires: no wrong
// answer ever served, the ABFT checks actually running, and zero SDC escapes
// — the sdc_escapes_total series must stay 0 even while faults corrupt tile
// memory and exchange payloads inside the solves.
func faultPhase(dir, server, backendName string) error {
	// CG+Jacobi with the checkpoint/restart policy: under this campaign seed
	// the checksum SpMV detects the corruption in-loop and the solve recovers
	// through restarts — deterministically, on both backends (replay
	// identity), so every request must be served and served right.
	cfgPath := filepath.Join(dir, "fault-"+backendName+".json")
	cfg := map[string]any{
		"solver": map[string]any{
			"type": "cg", "maxIterations": 600, "tolerance": 1e-8,
			"preconditioner": map[string]any{"type": "jacobi"},
		},
		"recovery": map[string]any{"interval": 5, "maxRestarts": 25},
	}
	buf0, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfgPath, buf0, 0o644); err != nil {
		return err
	}
	srv, err := startServer(dir, server, "fault-"+backendName,
		"-config", cfgPath, "-backend", backendName, "-abft",
		"-fault-rate", "0.0008", "-fault-seed", "6",
		"-fault-kinds", "bit-flip,exchange-corrupt")
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
		var r solveResult
		err := postJSON(srv.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &r)
		if err != nil {
			// A typed rejection (breakdown past the restart budget) is an
			// honest failure, not a wrong answer.
			continue
		}
		served++
		if cerr := checkOnes(r); cerr != nil {
			wrong++
			fmt.Fprintf(os.Stderr, "servesmoke: WRONG ANSWER under faults (%s): %v\n", backendName, cerr)
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
	resp, err := http.Get(srv.base + "/metrics")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	if !strings.Contains(body, "abft_checks_total") {
		return fmt.Errorf("/metrics missing abft_checks_total: ABFT not armed")
	}
	if !strings.Contains(body, `abft_detections_total{kernel="spmv"}`) {
		return fmt.Errorf("/metrics missing spmv detections: campaign seed no longer trips the checksum")
	}
	if !strings.Contains(body, "sdc_escapes_total 0") {
		return fmt.Errorf("/metrics sdc_escapes_total is not 0")
	}
	fmt.Printf("servesmoke: fault campaign (%s): %d/%d served, 0 wrong, 0 SDC escapes\n",
		backendName, served, total)
	return srv.drain()
}

// metricsPhase boots a plain server, drives one solve, scrapes GET /metrics
// and requires the exposition to carry the key series of every instrumented
// layer: the serve request histogram and cache counters, the breaker-state
// gauge, and the pipeline/engine/machine/solver series that flow through the
// service's shared telemetry registry.
func metricsPhase(dir, server string) error {
	srv, err := startServer(dir, server, "metrics")
	if err != nil {
		return err
	}
	defer srv.kill()

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	var r solveResult
	if err := postJSON(srv.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &r); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if err := checkOnes(r); err != nil {
		return fmt.Errorf("solve: %w", err)
	}

	resp, err := http.Get(srv.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("/metrics content type %q, want text/plain", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	body := buf.String()
	for _, frag := range []string{
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
	} {
		if !strings.Contains(body, frag) {
			return fmt.Errorf("/metrics missing %q", frag)
		}
	}
	fmt.Printf("servesmoke: metrics: %d bytes of exposition, all key series present\n", buf.Len())
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
func refreshPhase(dir, server string) error {
	srv, err := startServer(dir, server, "refresh")
	if err != nil {
		return err
	}
	defer srv.kill()

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	var cold solveResult
	if err := postJSON(srv.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &cold); err != nil {
		return fmt.Errorf("cold solve: %w", err)
	}
	if err := checkOnes(cold); err != nil {
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
		if err := patchJSON(srv.base+"/v1/systems/"+id, map[string]any{"diag": m.Diag}, &up); err != nil {
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
		var r solveResult
		if err := postJSON(srv.base+"/v1/systems/"+id+"/solve", map[string]any{"rhs": "ones"}, &r); err != nil {
			return fmt.Errorf("solve step %d: %w", step, err)
		}
		if err := checkOnes(r); err != nil {
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

	resp, err := http.Get(srv.base + "/metrics")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	total, err := counterValue(buf.String(), "prepared_refresh_total")
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
// a registration under -tune must race candidates and serve the winner, the
// decision must be readable at GET /v1/systems/{id}/tune, and — the part
// that matters — it must survive kill -9: the restarted process recovers the
// decision from the WAL and serves the tuned configuration without racing
// again (its tune_races_total stays 0).
func tunePhase(dir, server string) error {
	stateDir := filepath.Join(dir, "tune-state")
	srv, err := startServer(dir, server, "tune1",
		"-state-dir", stateDir, "-tune", "-tune-budget", "2s")
	if err != nil {
		return err
	}
	defer srv.kill()

	info, err := srv.register()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if !info.Tuned {
		return fmt.Errorf("registration under -tune reports tuned=false")
	}
	type tuneReply struct {
		ID   string `json:"id"`
		Tune *struct {
			Winner struct {
				Backend string `json:"backend,omitempty"`
			} `json:"winner"`
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
	var r solveResult
	if err := postJSON(srv.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &r); err != nil {
		return fmt.Errorf("tuned solve: %w", err)
	}
	if err := checkOnes(r); err != nil {
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

	srv2, err := startServer(dir, server, "tune2",
		"-state-dir", stateDir, "-tune", "-tune-budget", "2s")
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
	if td2.Tune.Winner.Backend != td.Tune.Winner.Backend {
		return fmt.Errorf("restart changed the winner backend %q -> %q",
			td.Tune.Winner.Backend, td2.Tune.Winner.Backend)
	}
	races2, err := scrapeCounter(srv2.base, "tune_races_total")
	if err != nil {
		return err
	}
	if races2 != 0 {
		return fmt.Errorf("restart re-raced (%g races): the WAL decision must be reused", races2)
	}
	var r2 solveResult
	if err := postJSON(srv2.base+"/v1/systems/"+info.ID+"/solve", map[string]any{"rhs": "ones"}, &r2); err != nil {
		return fmt.Errorf("tuned solve after restart: %w", err)
	}
	if err := checkOnes(r2); err != nil {
		return fmt.Errorf("tuned solve after restart: %w", err)
	}
	fmt.Printf("servesmoke: tune: restart recovered the decision from WAL, 0 re-races\n")
	return srv2.drain()
}

// scrapeCounter fetches /metrics and extracts one unlabeled counter.
func scrapeCounter(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return counterValue(buf.String(), name)
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

// checkOnes verifies a solve result converged to the all-ones solution.
func checkOnes(r solveResult) error {
	if r.Error != "" || !r.Converged {
		return fmt.Errorf("converged=%v err=%q", r.Converged, r.Error)
	}
	for j, v := range r.X {
		if d := v - 1; d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("x[%d]=%g, want 1", j, v)
		}
	}
	return nil
}

// onesBatch builds k copies of the right-hand side whose exact solution is
// the all-ones vector: b = A*1, with A regenerated locally from the same
// generator spec the server was registered with.
func onesBatch(n, k int) [][]float64 {
	m, err := sparse.GenByName(gen)
	if err != nil || m.N != n {
		panic(fmt.Sprintf("generator mismatch: %v", err))
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	m.MulVec(ones, b)
	out := make([][]float64, k)
	for i := range out {
		out[i] = b
	}
	return out
}

func waitForPort(portFile string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			return string(bytes.TrimSpace(b)), nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", fmt.Errorf("server did not report a port within %s", timeout)
}

func postJSON(url string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return fmt.Errorf("%s: %d %s", url, resp.StatusCode, msg.String())
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// patchJSON issues a PATCH with a JSON body — the values-refresh verb of the
// resource API.
func patchJSON(url string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return fmt.Errorf("%s: %d %s", url, resp.StatusCode, msg.String())
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getOK(url string) error {
	return getJSON(url, &struct{}{})
}
