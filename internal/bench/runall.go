package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"ipusparse/internal/platform"
)

// experiment is one row of the harness's only list of experiments: Run,
// RunCSV, RunJSON, "all", the unknown-name error and benchsuite's flag help
// are all read from the experiments table below.
type experiment struct {
	name string
	// run computes the experiment, prints it to o.Out and returns what it
	// printed.
	run func(o Options) (any, error)
	// csv, when set, computes the experiment and writes it as CSV records.
	csv func(o Options, w io.Writer) error
	// json, when set, files what run returned under the keys the committed
	// BENCH_<name>.json artifact has always used.
	json func(a *artifact, v any)
}

// experiments lists every table and figure the harness regenerates, in the
// order "all" runs them.
var experiments = []experiment{
	{name: "table1", run: show(Table1, PrintTable1)},
	{name: "table2", run: show(Table2, PrintTable2)},
	{name: "table3", run: show(func(o Options) ([]platform.Platform, error) { return Table3(o), nil }, PrintTable3)},
	{name: "table4", run: show(Table4, PrintTable4), csv: records(Table4, WriteTable4CSV)},
	{name: "table5", run: show(Table5, PrintTable5)},
	{name: "fig5", run: show(Fig5, PrintFig5), csv: records(Fig5, WriteScalingCSV)},
	{name: "fig6", run: show(Fig6, PrintFig6), csv: records(Fig6, WriteScalingCSV)},
	{name: "fig7", run: show(Fig7, PrintFig7), csv: records(Fig7, WriteCompareCSV)},
	{name: "fig8", run: show(Fig8, PrintFig8), csv: records(Fig8, WriteCompareCSV)},
	{name: "fig9", run: show(Fig9, printConvergenceAs("Fig 9 (Geo_1438-like)")), csv: records(Fig9, WriteConvergenceCSV)},
	{name: "fig10", run: show(Fig10, printConvergenceAs("Fig 10 (af_shell7-like)")), csv: records(Fig10, WriteConvergenceCSV)},
	{name: "halo", run: show(HaloStudy, PrintHaloStudy)},
	{name: "sdc", run: show(SDCStudy, PrintSDCStudy), json: func(a *artifact, v any) {
		t := v.(SDCTable)
		a.Overhead, a.Campaigns = t.Overhead, t.Campaigns
	}},
	{name: "tune", run: show(TuneStudy, PrintTuneStudy), json: func(a *artifact, v any) { a.Rows = v }},
}

// show adapts a typed (compute, print) pair to an experiment's run.
func show[T any](compute func(Options) (T, error), print func(Options, T)) func(Options) (any, error) {
	return func(o Options) (any, error) {
		v, err := compute(o)
		if err != nil {
			return nil, err
		}
		print(o, v)
		return v, nil
	}
}

// records adapts a typed (compute, CSV writer) pair to an experiment's csv.
func records[T any](compute func(Options) (T, error), write func(io.Writer, T) error) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) error {
		v, err := compute(o)
		if err != nil {
			return err
		}
		return write(w, v)
	}
}

func printConvergenceAs(title string) func(Options, []ConvSeries) {
	return func(o Options, series []ConvSeries) { PrintConvergence(o, title, series) }
}

// Names lists the experiments in the order "all" runs them.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func lookup(name string) (experiment, error) {
	for _, e := range experiments {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("bench: unknown experiment %q (known: all, %s)",
		name, strings.Join(Names(), ", "))
}

// Run executes one named experiment, or every one for "all", and prints the
// result to o.Out.
func Run(o Options, name string) error {
	o = o.withDefaults()
	if name == "all" {
		for _, e := range experiments {
			if _, err := e.run(o); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	}
	e, err := lookup(name)
	if err != nil {
		return err
	}
	_, err = e.run(o)
	return err
}

// RunCSV runs one experiment and writes machine-readable CSV instead of the
// human-readable table.
func RunCSV(o Options, name string, w io.Writer) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	if e.csv == nil {
		return fmt.Errorf("bench: no CSV writer for %q", name)
	}
	return e.csv(o.withDefaults(), w)
}

// artifact is the envelope of every committed BENCH_<name>.json file: the
// measurement host, then the study's rows under the keys the artifact has
// always used.
type artifact struct {
	Bench      string `json:"bench"`
	Cores      int    `json:"hostCores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Warning    string `json:"warning,omitempty"`
	Rows       any    `json:"rows,omitempty"`
	Overhead   any    `json:"overhead,omitempty"`
	Campaigns  any    `json:"campaigns,omitempty"`
}

// RunJSON executes one artifact-backed study like Run and then writes its
// BENCH_<name>.json artifact to path.
func RunJSON(o Options, name, path string) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	if e.json == nil {
		return fmt.Errorf("bench: experiment %q has no JSON artifact", name)
	}
	v, err := e.run(o.withDefaults())
	if err != nil {
		return err
	}
	a := artifact{Bench: name, Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Warning: singleCoreWarning()}
	e.json(&a, v)
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
