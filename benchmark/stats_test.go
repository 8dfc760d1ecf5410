package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return v
}

func TestPercentileFollowsTheTenBeyondRule(t *testing.T) {
	cases := []struct {
		n         int
		p         float64
		value     float64
		beyond    int
		supported bool
	}{
		{100, 0.50, 50, 50, true},
		{100, 0.90, 90, 10, true},
		{100, 0.99, 99, 1, false},
		{1000, 0.99, 990, 10, true},
		{20, 0.50, 10, 10, true},
		{19, 0.50, 10, 9, false},
		{5, 0.90, 5, 0, false},
	}
	for _, tc := range cases {
		q := percentile(seq(tc.n), tc.p)
		if q.Value != tc.value || q.Beyond != tc.beyond || q.Supported != tc.supported || q.N != tc.n {
			t.Errorf("p%g of 1..%d = %+v, want value %g beyond %d supported %v", 100*tc.p, tc.n, q, tc.value, tc.beyond, tc.supported)
		}
	}
	if q := percentile(nil, 0.5); q.N != 0 || q.Supported {
		t.Errorf("percentile of nothing = %+v", q)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(v, n=4) from CPython for each v.
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 12, 11, 15, 9}, 9.5, 11, 13.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
	}
	for _, tc := range cases {
		q1, q2, q3, ok := quartiles(tc.v)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g (ok=%v), want %g %g %g", tc.v, q1, q2, q3, ok, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g (ok=%v), want (8.25-2.75)/5.5 = 1", s, ok)
	}
}

func TestLateness(t *testing.T) {
	delays := make([]float64, 100)
	for i := range delays {
		delays[i] = 0.2
	}
	if frac, p99 := lateness(delays); frac != 0 || p99 != 0.2 {
		t.Errorf("on-time generator: late_frac %g late_p99 %g", frac, p99)
	}
	delays[7], delays[8] = lateThresholdMs+1, 400
	if frac, p99 := lateness(delays); frac != 0.02 || p99 != lateThresholdMs+1 {
		t.Errorf("two late dispatches of 100: late_frac %g late_p99 %g", frac, p99)
	}
}

func boundOf(t *testing.T, metric string) float64 {
	t.Helper()
	for _, m := range endToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	t.Fatalf("no end-to-end metric %s", metric)
	return 0
}

// sideOf builds one results file per value of one metric on one workload.
func sideOf(w, metric string, values ...float64) []*resultsFile {
	var out []*resultsFile
	for _, v := range values {
		r := newResult(w)
		r.EndToEnd[metric] = metricValue{Value: v, Unit: unitOf(metric)}
		out = append(out, &resultsFile{Workloads: map[string]*result{w: r}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	one := func(base, now []*resultsFile) compareRow {
		t.Helper()
		rows := compareSides(base, now)
		if len(rows) != 1 {
			t.Fatalf("%d rows, want 1", len(rows))
		}
		return rows[0]
	}
	// latency_p50_ms: lower is better.
	b := boundOf(t, "latency_p50_ms")
	if r := one(sideOf(wServeCG, "latency_p50_ms", 100), sideOf(wServeCG, "latency_p50_ms", 100*(1+b-0.01))); r.Verdict != verdictOK || r.Spread != -1 {
		t.Errorf("slower by a point less than the bound: %+v", r)
	}
	if r := one(sideOf(wServeCG, "latency_p50_ms", 100), sideOf(wServeCG, "latency_p50_ms", 100*(1+b+0.01))); r.Verdict != verdictRegressed || math.Abs(r.Ratio-(1+b+0.01)) > 1e-12 {
		t.Errorf("slower by a point more than the bound: %+v", r)
	}
	if r := one(sideOf(wServeCG, "latency_p50_ms", 100), sideOf(wServeCG, "latency_p50_ms", 50)); r.Verdict != verdictOK {
		t.Errorf("twice as fast: %+v", r)
	}
	// throughput_ops_s: higher is better.
	tb := boundOf(t, "throughput_ops_s")
	if r := one(sideOf(wServeCG, "throughput_ops_s", 100), sideOf(wServeCG, "throughput_ops_s", 100*(1-tb-0.01))); r.Verdict != verdictRegressed {
		t.Errorf("less throughput than the bound allows: %+v", r)
	}
	if r := one(sideOf(wServeCG, "throughput_ops_s", 100), sideOf(wServeCG, "throughput_ops_s", 140)); r.Verdict != verdictOK {
		t.Errorf("more throughput: %+v", r)
	}
	// Medians equal but the runs swing by more than the bound: unresolved.
	noisy := []float64{100 * (1 - 2*b), 100 * (1 - b), 100, 100 * (1 + b), 100 * (1 + 2*b)}
	if r := one(sideOf(wServeCG, "latency_p50_ms", noisy...), sideOf(wServeCG, "latency_p50_ms", noisy...)); r.Verdict != verdictUnresolved || r.Spread <= b {
		t.Errorf("noisy sides with equal medians: %+v", r)
	}
	steady := []float64{99, 100, 100, 100, 101}
	if r := one(sideOf(wServeCG, "latency_p50_ms", steady...), sideOf(wServeCG, "latency_p50_ms", steady...)); r.Verdict != verdictOK {
		t.Errorf("steady sides: %+v", r)
	}
	// Bound 0: any increase regresses, equality is ok, also from zero.
	if r := one(sideOf(wSimCold, "sim_cycles_total", 1000), sideOf(wSimCold, "sim_cycles_total", 1001)); r.Verdict != verdictRegressed {
		t.Errorf("one more simulated cycle: %+v", r)
	}
	if r := one(sideOf(wServeCG, "fail_frac", 0), sideOf(wServeCG, "fail_frac", 0)); r.Verdict != verdictOK {
		t.Errorf("no failures on either side: %+v", r)
	}
	if r := one(sideOf(wServeCG, "fail_frac", 0), sideOf(wServeCG, "fail_frac", 0.01)); r.Verdict != verdictRegressed {
		t.Errorf("failures appeared: %+v", r)
	}
	// A metric is only compared where it applies.
	if rows := compareSides(sideOf(wServeCG, "sim_cycles_total", 1), sideOf(wServeCG, "sim_cycles_total", 2)); len(rows) != 0 {
		t.Errorf("sim_cycles_total compared on serve-cg: %+v", rows)
	}
}

func TestRunCompareReadsFilesAndCountsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rf *resultsFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	b := boundOf(t, "cpu_s_per_op")
	base := write("base.json", sideOf(wServeWire, "cpu_s_per_op", 0.0050)[0])
	same := write("same.json", sideOf(wServeWire, "cpu_s_per_op", 0.0051)[0])
	worse := write("worse.json", sideOf(wServeWire, "cpu_s_per_op", 0.0050*(1+b+0.05))[0])

	var out bytes.Buffer
	if n, err := runCompare(&out, base, same); err != nil || n != 0 {
		t.Fatalf("regressed=%d err=%v\n%s", n, err, out.String())
	}
	out.Reset()
	n, err := runCompare(&out, base, worse+","+worse)
	if err != nil || n != 1 {
		t.Fatalf("regressed=%d err=%v\n%s", n, err, out.String())
	}
	for _, want := range []string{wServeWire, "cpu_s_per_op", fmt.Sprintf("%.3f of 0.005", 1+b+0.05), fmt.Sprintf("%.2f", b), verdictRegressed} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if _, err := runCompare(&out, base, filepath.Join(dir, "absent.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}
