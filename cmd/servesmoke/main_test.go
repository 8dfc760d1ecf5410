package main

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestSelectPhases(t *testing.T) {
	names := func(ps []phase) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.name
		}
		return out
	}
	all, err := selectPhases("all")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"serve", "restart", "chaos", "metrics", "refresh", "tune", "cluster"}
	if got := names(all); !slices.Equal(got, want) {
		t.Errorf("all = %v, want %v", got, want)
	}

	some, err := selectPhases("cluster,serve")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(some); !slices.Equal(got, []string{"cluster", "serve"}) {
		t.Errorf("cluster,serve = %v, want the order given", got)
	}
	if !some[0].router || some[1].router {
		t.Errorf("only the cluster phase needs the router")
	}

	_, err = selectPhases("serve,nosuch")
	if err == nil {
		t.Fatal("unknown phase accepted")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list phase %q", err, name)
		}
	}
}

func TestCounterValue(t *testing.T) {
	body := "# TYPE tune_races_total counter\ntune_races_total 3\ntune_races_total_x 9\nbad_total n/a\n"
	if v, err := counterValue(body, "tune_races_total"); err != nil || v != 3 {
		t.Errorf("found: got %g, %v; want 3", v, err)
	}
	if _, err := counterValue(body, "missing_total"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing: got %v", err)
	}
	if _, err := counterValue(body, "bad_total"); err == nil || !strings.Contains(err.Error(), "unparseable") {
		t.Errorf("unparseable: got %v", err)
	}
}

func TestCheckOnes(t *testing.T) {
	ones := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		return x
	}
	if err := checkOnes(solveResult{Converged: true, X: ones(rows)}); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	off := ones(rows)
	off[7] += 1e-5
	nan := ones(rows)
	nan[0] = math.NaN()
	for name, r := range map[string]solveResult{
		"empty x":       {Converged: true, X: []float64{}},
		"wrong length":  {Converged: true, X: ones(rows - 1)},
		"off by 1e-5":   {Converged: true, X: off},
		"NaN":           {Converged: true, X: nan},
		"not converged": {Converged: false, X: ones(rows)},
		"error text":    {Converged: true, X: ones(rows), Error: "breakdown"},
	} {
		if err := checkOnes(r); !errors.Is(err, errWrong) {
			t.Errorf("%s: got %v, want a wrong-answer error", name, err)
		}
	}
}
