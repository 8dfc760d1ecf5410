package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Run executes one named experiment and prints its result to o.Out. Known
// names: table1..table7, fig5..fig10, halo, engine, backend, cluster, sdc,
// refresh, tune, all.
func Run(o Options, name string) error {
	o = o.withDefaults()
	switch name {
	case "table1":
		rows, err := Table1(o)
		if err != nil {
			return err
		}
		PrintTable1(o, rows)
	case "table2":
		rows, err := Table2(o)
		if err != nil {
			return err
		}
		PrintTable2(o, rows)
	case "table3":
		PrintTable3(o, Table3(o))
	case "table4":
		rows, err := Table4(o)
		if err != nil {
			return err
		}
		PrintTable4(o, rows)
	case "table5":
		rows, err := Table5(o)
		if err != nil {
			return err
		}
		PrintTable5(o, rows)
	case "table6":
		rows, err := Table6(o)
		if err != nil {
			return err
		}
		PrintTable6(o, rows)
	case "table7":
		rows, err := Table7(o)
		if err != nil {
			return err
		}
		PrintTable7(o, rows)
	case "halo":
		rows, err := HaloStudy(o)
		if err != nil {
			return err
		}
		PrintHaloStudy(o, rows)
	case "cluster":
		rows, err := Table9(o)
		if err != nil {
			return err
		}
		PrintTable9(o, rows)
	case "engine", "backend", "sdc", "refresh", "tune":
		_, err := runStudy(o, name)
		return err
	case "fig5":
		pts, err := Fig5(o)
		if err != nil {
			return err
		}
		PrintFig5(o, pts)
	case "fig6":
		pts, err := Fig6(o)
		if err != nil {
			return err
		}
		PrintFig6(o, pts)
	case "fig7":
		rows, err := Fig7(o)
		if err != nil {
			return err
		}
		PrintFig7(o, rows)
	case "fig8":
		rows, err := Fig8(o)
		if err != nil {
			return err
		}
		PrintFig8(o, rows)
	case "fig9":
		series, err := Fig9(o)
		if err != nil {
			return err
		}
		PrintConvergence(o, "Fig 9 (Geo_1438-like)", series)
	case "fig10":
		series, err := Fig10(o)
		if err != nil {
			return err
		}
		PrintConvergence(o, "Fig 10 (af_shell7-like)", series)
	case "all":
		for _, n := range AllExperiments {
			if err := Run(o, n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
	default:
		return fmt.Errorf("bench: unknown experiment %q", name)
	}
	return nil
}

// AllExperiments lists every table and figure of the evaluation section.
var AllExperiments = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7",
	"fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"halo", "engine", "backend", "cluster", "sdc", "refresh", "tune",
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

// runStudy executes one artifact-backed study (engine, backend, sdc, refresh,
// tune), prints its table and returns the artifact it would record.
func runStudy(o Options, name string) (artifact, error) {
	a := artifact{Bench: name, Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Warning: singleCoreWarning()}
	switch name {
	case "engine":
		rows, err := EngineStudy(o)
		if err != nil {
			return a, err
		}
		PrintEngineStudy(o, rows)
		a.Rows = rows
	case "backend":
		rows, err := BackendStudy(o)
		if err != nil {
			return a, err
		}
		PrintBackendStudy(o, rows)
		a.Rows = rows
	case "sdc":
		overhead, campaigns, err := SDCStudy(o)
		if err != nil {
			return a, err
		}
		PrintSDCStudy(o, overhead, campaigns)
		a.Overhead, a.Campaigns = overhead, campaigns
	case "refresh":
		rows, err := RefreshStudy(o)
		if err != nil {
			return a, err
		}
		PrintRefreshStudy(o, rows)
		a.Rows = rows
	case "tune":
		rows, err := TuneStudy(o)
		if err != nil {
			return a, err
		}
		PrintTuneStudy(o, rows)
		a.Rows = rows
	default:
		return a, fmt.Errorf("bench: experiment %q has no JSON artifact", name)
	}
	return a, nil
}

// RunJSON executes one artifact-backed study like Run and then writes its
// BENCH_<name>.json artifact to path.
func RunJSON(o Options, name, path string) error {
	a, err := runStudy(o.withDefaults(), name)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
