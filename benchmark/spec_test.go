package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkJSON is BENCHMARK.json as spec.go defines it.
func benchmarkJSON(t *testing.T) []byte {
	t.Helper()
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		if m.Gated {
			doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	for _, m := range layerMetrics() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want := benchmarkJSON(t)
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; run `go test -run TestBenchmarkJSONMatchesSpec -update` in benchmark/")
	}
}

// The driver refuses a BENCHMARK.json outside these limits before a single
// run, so they are checked here.
func TestSpecMeetsTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("why of %s has %d characters or a line break", w.Name, len(w.Why))
		}
	}
	gated, setup := 0, false
	for _, m := range endToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if !m.Gated {
			if m.Layer == "" {
				t.Errorf("%s is neither gated nor given a per-layer name", m.Name)
			}
			continue
		}
		use(m.Name)
		gated++
		if m.Applies != nil {
			t.Errorf("%s is gated but does not apply to every workload", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Gated && o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if gated < 1 || gated > 16 || !setup {
		t.Errorf("%d gated metrics, setup_s present and well-formed: %v", gated, setup)
	}
	layers := layerMetrics()
	if len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d per-layer metrics", len(layers))
	}
	for _, m := range layers {
		use(m.Name)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Moves == "" {
			t.Errorf("%s has no entry in the interaction table", m.Name)
		}
	}
	if n := len(benchmarkJSON(t)); n > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes", n)
	}
}

// A result line must carry every gated metric with tracing off and every
// per-layer metric with tracing on, whatever the workload measured.
func TestDriverLineShape(t *testing.T) {
	r := newResult(wSimCold)
	r.Attempted = 3
	for _, m := range endToEnd {
		r.e2e(m.Name, 1.5, 3)
	}
	r.layer("ipu.supersteps", 42, 0)
	for _, trace := range []bool{false, true} {
		line, err := r.driverLine(trace)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted != 3 {
			t.Fatalf("result line lacks a key: %s", line)
		}
		want := 0
		if trace {
			want = len(layerMetrics())
			if v := got.Metrics["ipu.supersteps"]; v.Value == nil || *v.Value != 42 || v.Unit != "count" {
				t.Errorf("ipu.supersteps = %+v", v)
			}
			if v := got.Metrics["cluster.hop_ms"]; v.Value == nil || *v.Value != 0 {
				t.Errorf("a layer sim-cold does not have must read 0, got %+v", v)
			}
		} else {
			for _, m := range endToEnd {
				if m.Gated {
					want++
				}
			}
		}
		if len(got.Metrics) != want {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(got.Metrics), want)
		}
	}
	delete(r.EndToEnd, "setup_s")
	if _, err := r.driverLine(false); err == nil {
		t.Error("a missing gated metric must be an error, not a silent omission")
	}
}
