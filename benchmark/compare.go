package main

import (
	"fmt"
	"io"
	"strings"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of `-compare`.
type compareRow struct {
	Workload, Metric, Unit string
	Base, New              float64 // medians over each side's files
	Ratio                  float64 // New/Base
	Bound                  float64
	Spread                 float64 // widest IQR/median of the two sides; -1 when a side has one file
	Verdict                string
}

// worsening is by how much of base the new value is worse (negative when it
// is better), in the metric's own direction.
func worsening(better string, base, now float64) float64 {
	if base == 0 {
		switch {
		case now == 0:
			return 0
		case (better == "lower") == (now > 0):
			return 1 // from nothing to something, in the bad direction
		}
		return -1
	}
	if better == "lower" {
		return (now - base) / base
	}
	return (base - now) / base
}

// compareSides judges every (workload, end-to-end metric) pair that both
// sides measured. A row is regressed when the new median is worse than the
// base median by more than the bound, unresolved when it is not but the
// run-to-run spread of either side is wider than the bound (so "no change"
// cannot be claimed), and ok otherwise. Spreads need at least two files per
// side.
func compareSides(base, now []*resultsFile) []compareRow {
	var rows []compareRow
	values := func(side []*resultsFile, w, metric string) []float64 {
		var v []float64
		for _, rf := range side {
			if r := rf.Workloads[w]; r != nil {
				if m, ok := r.EndToEnd[metric]; ok {
					v = append(v, m.Value)
				}
			}
		}
		return v
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			if !applies(m.Applies, w.Name) {
				continue
			}
			a, b := values(base, w.Name, m.Name), values(now, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			row := compareRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Base: median(a), New: median(b), Bound: m.Bound, Spread: -1}
			if row.Base != 0 {
				row.Ratio = row.New / row.Base
			}
			sa, okA := spread(a)
			sb, okB := spread(b)
			if okA && okB {
				row.Spread = max(sa, sb)
			}
			switch {
			case worsening(m.Better, row.Base, row.New) > m.Bound:
				row.Verdict = verdictRegressed
			case row.Spread > m.Bound:
				row.Verdict = verdictUnresolved
			default:
				row.Verdict = verdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printCompare(w io.Writer, rows []compareRow) (regressed int) {
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %-5s %18s %7s %8s  %s\n", "workload", "metric", "base", "new", "unit", "new/base", "bound", "spread", "verdict")
	for _, r := range rows {
		sp := "n/a"
		if r.Spread >= 0 {
			sp = fmt.Sprintf("%.3f", r.Spread)
		}
		ratio := fmt.Sprintf("%.3f of %.4g", r.Ratio, r.Base)
		fmt.Fprintf(w, "%-14s %-20s %12.5g %12.5g %-5s %18s %7.2f %8s  %s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, ratio, r.Bound, sp, r.Verdict)
		if r.Verdict == verdictRegressed {
			regressed++
		}
	}
	return regressed
}

// runCompare implements `-compare a/results.json b/results.json`. Either side
// may be a comma-separated list of files from repeated runs, which gives the
// spreads behind "unresolved".
func runCompare(w io.Writer, baseArg, newArg string) (int, error) {
	load := func(arg string) ([]*resultsFile, error) {
		var out []*resultsFile
		for _, path := range strings.Split(arg, ",") {
			rf, err := readResults(strings.TrimSpace(path))
			if err != nil {
				return nil, err
			}
			out = append(out, rf)
		}
		return out, nil
	}
	base, err := load(baseArg)
	if err != nil {
		return 0, err
	}
	now, err := load(newArg)
	if err != nil {
		return 0, err
	}
	rows := compareSides(base, now)
	if len(rows) == 0 {
		return 0, fmt.Errorf("the two sides share no (workload, metric) pair")
	}
	return printCompare(w, rows), nil
}
