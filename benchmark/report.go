package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricValue is one reported number. N is the sample count behind a timing
// (0 for counts and ratios); Unsupported marks a percentile with fewer than
// ten samples beyond it.
type metricValue struct {
	Value       float64 `json:"value"`
	Unit        string  `json:"unit"`
	N           int     `json:"n,omitempty"`
	Unsupported bool    `json:"unsupported,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"endToEnd,omitempty"`
	PerLayer  map[string]metricValue `json:"perLayer,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
	// Spans carry a traced run's spans from a child process to the parent of
	// a full run; results.json never holds them (trace.json does).
	Spans []span `json:"spans,omitempty"`
}

func newResult(w string) *result {
	return &result{Workload: w, Correct: true, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerMetrics() {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("metric " + name + " is not in spec.go") // a typo in the benchmark itself
}

func (r *result) e2e(name string, v float64, n int) {
	r.EndToEnd[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) e2ePctl(name string, q pctl) {
	r.EndToEnd[name] = metricValue{Value: q.Value, Unit: unitOf(name), N: q.N, Unsupported: !q.Supported}
}

func (r *result) layer(name string, v float64, n int) {
	r.PerLayer[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) layerPctl(name string, q pctl) {
	r.PerLayer[name] = metricValue{Value: q.Value, Unit: unitOf(name), N: q.N, Unsupported: !q.Supported}
}

// mirrorUngated copies the end-to-end metrics the driver does not gate into
// the per-layer map under their per-layer names, which is where
// BENCHMARK.json lists them.
func (r *result) mirrorUngated() {
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok && !m.Gated {
			r.PerLayer[m.Layer] = v
		}
	}
}

// merge folds the traced run's per-layer metrics into an untraced result.
func (r *result) merge(traced *result) {
	for k, v := range traced.PerLayer {
		if _, have := r.PerLayer[k]; !have {
			r.PerLayer[k] = v
		}
	}
	r.Warnings = append(r.Warnings, traced.Warnings...)
	if !traced.Correct {
		r.Correct = false
		r.Failures = append(r.Failures, traced.Failures...)
	}
}

// driverLine is the last line of standard output in driver mode: exactly the
// keys correct, attempted, failed and metrics. With trace off the metrics are
// the gated end-to-end ones, with trace on every per-layer metric of
// BENCHMARK.json (0 where a layer does not exist on this workload).
func (r *result) driverLine(trace bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if !trace {
		for _, m := range endToEnd {
			if !m.Gated {
				continue
			}
			v, ok := r.EndToEnd[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", r.Workload, m.Name)
			}
			metrics[m.Name] = mv{v.Value, m.Unit}
		}
	} else {
		for _, m := range layerMetrics() {
			v := r.PerLayer[m.Name] // zero value where the layer is absent
			metrics[m.Name] = mv{v.Value, m.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": metrics,
	})
}

// environment is recorded in results.json so that a number is never read
// without the box it was taken on.
type environment struct {
	HostCores     int     `json:"hostCores"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"goVersion"`
	GitCommit     string  `json:"gitCommit"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"windowSeconds"`
	WarmupSeconds float64 `json:"warmupSeconds"`
	LadderReps    int     `json:"ladderReps"`
	ClusterRate   int     `json:"clusterRateOpsPerSec"`
	Quick         bool    `json:"quick,omitempty"`
}

// resultsFile is results.json.
type resultsFile struct {
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Workloads) == 0 {
		return nil, fmt.Errorf("%s holds no workloads", path)
	}
	return &rf, nil
}

// printResult writes every metric of one workload by name with its unit and
// sample count.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  (attempted %d, failed %d, correct %v)\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	section := func(title string, m map[string]metricValue) {
		if len(m) == 0 {
			return
		}
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %s\n", title)
		for _, k := range names {
			v := m[k]
			note := ""
			if v.N > 0 {
				note = fmt.Sprintf("  n=%d", v.N)
			}
			if v.Unsupported {
				note += "  (fewer than 10 samples beyond this percentile)"
			}
			fmt.Fprintf(w, "    %-34s %14.6g %-6s%s\n", k, v.Value, v.Unit, note)
		}
	}
	section("end-to-end", r.EndToEnd)
	section("per-layer", r.PerLayer)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
	for _, f := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", f)
	}
}

// writeTrace writes spans as Chrome trace-event JSON (chrome://tracing or
// ui.perfetto.dev): one complete event per span, one track per rung or op
// kind, the benchmark's own fields under args.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	pids := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
		}
		args := map[string]any{"workload": s.Workload, "rep": s.Rep, "start_ns": s.StartNs, "end_ns": s.EndNs}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: pid, Tid: s.Track, Args: args,
		})
	}
	return writeJSONFile(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
