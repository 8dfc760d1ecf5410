// Command benchmark is the repository's benchmark: five workloads that drive
// ipuserved and ipurouterd over HTTP (and the simulator in-process) with
// tracing off, then a traced layer ladder that decomposes a request into the
// repo's layers. README.md in this directory holds the workload table, the
// metric glossary and the interaction table; spec.go holds the names.
//
//	bash benchmark/run.sh -seed 1 -out <dir>            all workloads + ladder, results.json, trace.json
//	bash benchmark/run.sh -quick -out <dir>              the same with 2 s windows and 20 ladder reps
//	bash benchmark/run.sh -compare a/results.json b/results.json
//	bash benchmark/run.sh --workload serve-cg --seed 1 --seconds 20 --trace 0     one driver run
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	out         string
	root        string
	detail      string
	quick       bool
	compare     bool
	capacity    int
	ladderReps  int
	rungSeconds float64
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+") and print the driver's result line; empty runs all of them and the ladder")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window per workload in seconds (warm-up is 3/20 of it)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 runs the traced window, the ladder and the layer probes")
	flag.StringVar(&o.out, "out", "", "directory for results.json and trace.json (default .bench_build/out in the repository)")
	flag.StringVar(&o.root, "root", "", "repository root (default: found upward from the working directory)")
	flag.StringVar(&o.detail, "detail", "", "with -workload: also write the full result to this file")
	flag.BoolVar(&o.quick, "quick", false, "2 s windows and 20 ladder reps, for humans")
	flag.BoolVar(&o.compare, "compare", false, "compare two results.json files (or comma-separated lists of them): -compare base new")
	flag.IntVar(&o.capacity, "capacity", 0, "run cluster-mixed as a closed loop with this many clients and report its capacity (the check behind the frozen rate)")
	flag.IntVar(&o.ladderReps, "ladder-reps", 200, "repetitions per ladder rung")
	flag.Float64Var(&o.rungSeconds, "rung-seconds", 0, "wall-clock cap per ladder rung (default seconds/20 with -workload, 6 otherwise)")
	flag.Parse()

	// No exit path may leave a daemon behind.
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		stopAll()
		return 1
	}
	return 0
}

var errRegressed = errors.New("at least one metric regressed")
var errIncorrect = errors.New("at least one answer failed its check")

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two arguments: base results and new results")
		}
		regressed, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return err
		}
		if regressed > 0 {
			return errRegressed
		}
		return nil
	}
	// Every committed BENCH_*.json was taken with hostCores 1, where the
	// generator, the daemons and the engine's host parallelism all share one
	// core; numbers from such a box are refused rather than recorded.
	if n := runtime.NumCPU(); n < 2 {
		return fmt.Errorf("refusing to measure on %d core: the load shape needs at least 2", n)
	}
	if o.quick {
		o.seconds, o.ladderReps = 2, 20
		if o.rungSeconds == 0 {
			o.rungSeconds = 0.6
		}
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(root, buildDir, "out")
	}
	if o.workload != "" || o.capacity > 0 {
		return runOne(o, root)
	}
	return runAll(o, root)
}

// findRoot locates the repository: the directory that holds the daemons'
// sources and this benchmark's configs.
func findRoot(flagRoot string) (string, error) {
	isRoot := func(dir string) bool {
		for _, p := range []string{"cmd/ipuserved", "cmd/ipurouterd", "benchmark/configs"} {
			if st, err := os.Stat(filepath.Join(dir, p)); err != nil || !st.IsDir() {
				return false
			}
		}
		return true
	}
	if flagRoot != "" {
		abs, err := filepath.Abs(flagRoot)
		if err != nil {
			return "", err
		}
		if !isRoot(abs) {
			return "", fmt.Errorf("%s does not hold cmd/ipuserved, cmd/ipurouterd and benchmark/configs", abs)
		}
		return abs, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRoot(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no directory upward holds cmd/ipuserved, cmd/ipurouterd and benchmark/configs")
		}
		dir = parent
	}
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// newRunCtx shapes one run of one workload from the flags.
func newRunCtx(o options, root string) (*runCtx, error) {
	c := &runCtx{
		root: root, seed: o.seed,
		window: dur(o.seconds), warmup: warmupFor(dur(o.seconds)),
		nproc: runtime.NumCPU(), setupCycles: 5,
		ladderReps: o.ladderReps, closedClients: o.capacity,
	}
	if o.trace == 1 {
		// The traced run exists for the ladder and the probes; its load
		// window only has to fill the counters.
		c.trace, c.tr = true, newTracer(o.workload)
		c.window, c.setupCycles = c.window/4, 1
		c.rungBudget = dur(o.rungSeconds)
		if c.rungBudget == 0 {
			c.rungBudget = dur(o.seconds / 20)
		}
	}
	c.work = filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	return c, nil
}

// runOne is driver mode: one workload, one result line.
func runOne(o options, root string) error {
	if o.capacity > 0 {
		o.workload = wCluster
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("-trace is 0 or 1")
	}
	c, err := newRunCtx(o, root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(c.work)
	if o.workload != wSimCold {
		if c.bin, c.buildS, err = buildDaemons(root); err != nil {
			return err
		}
	}

	var res *result
	switch {
	case isServe(o.workload):
		res, err = c.runServe(o.workload)
	case o.workload == wCluster:
		res, err = c.runCluster()
	default:
		res, err = c.runSimCold()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	res.mirrorUngated()
	printResult(os.Stdout, res)
	if o.capacity > 0 {
		tp := res.EndToEnd["throughput_ops_s"].Value
		fmt.Printf("\nclosed-loop capacity with %d clients: %.1f ops/s; the frozen rate %d (+%d%% DELETEs) is %.0f%% of it\n",
			o.capacity, tp, clusterRate, mixBlock[opRegister], 100*clusterRate*(1+float64(mixBlock[opRegister])/mixBlockLen)/tp)
	}
	switch {
	case o.detail != "":
		// The parent of a full run merges the spans into one trace.json.
		if c.tr != nil {
			res.Spans = c.tr.spans
		}
		if err := writeJSONFile(o.detail, res); err != nil {
			return err
		}
	case c.tr != nil:
		if err := writeTrace(filepath.Join(o.out, "trace-"+o.workload+".json"), c.tr.spans); err != nil {
			return err
		}
	}
	line, err := res.driverLine(o.trace == 1)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runAll runs every workload with tracing off, then every traced run, each in
// a process of its own (so that CPU and peak memory belong to one workload),
// and writes results.json and trace.json.
func runAll(o options, root string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	rung := o.rungSeconds
	if rung == 0 {
		rung = 6
	}
	rf := &resultsFile{
		Env: environment{
			HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(root), Seed: o.seed, WindowSeconds: o.seconds,
			WarmupSeconds: warmupFor(dur(o.seconds)).Seconds(), LadderReps: o.ladderReps,
			ClusterRate: clusterRate, Quick: o.quick,
		},
		Workloads: map[string]*result{},
	}
	child := func(w string, trace int) (*result, error) {
		detail := filepath.Join(o.out, fmt.Sprintf("detail-%s-%d.json", w, trace))
		cmd := exec.Command(self, "-root", root, "-workload", w, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace), "-out", o.out, "-detail", detail,
			"-ladder-reps", fmt.Sprint(o.ladderReps), "-rung-seconds", fmt.Sprint(rung))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w\n%s", w, trace, err, stderr.String())
		}
		defer os.Remove(detail)
		b, err := os.ReadFile(detail)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "benchmark: %s, tracing off\n", w.Name)
		res, err := child(w.Name, 0)
		if err != nil {
			return err
		}
		rf.Workloads[w.Name] = res
	}
	var spans []span
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "benchmark: %s, traced\n", w.Name)
		traced, err := child(w.Name, 1)
		if err != nil {
			return err
		}
		rf.Workloads[w.Name].merge(traced)
		spans = append(spans, traced.Spans...)
	}

	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, commit %s, seed %d, window %gs, warm-up %gs, cluster rate %d ops/s\n",
		rf.Env.HostCores, rf.Env.GOMAXPROCS, rf.Env.GoVersion, rf.Env.GitCommit, rf.Env.Seed,
		rf.Env.WindowSeconds, rf.Env.WarmupSeconds, rf.Env.ClusterRate)
	correct := true
	for _, w := range workloads {
		printResult(os.Stdout, rf.Workloads[w.Name])
		correct = correct && rf.Workloads[w.Name].Correct
	}
	if err := writeJSONFile(filepath.Join(o.out, "results.json"), rf); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(o.out, "trace.json"), spans); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s\n", filepath.Join(o.out, "results.json"), filepath.Join(o.out, "trace.json"))
	if !correct {
		return errIncorrect
	}
	return nil
}
