// Command benchsuite regenerates every table and figure of the paper's
// evaluation section on the simulated IPU.
//
// Usage:
//
//	benchsuite [-experiment all|<name>] [-scale N] [-tiles N] [-full] [-csv | -json FILE]
//
// -help lists the experiment names.
//
// The default scale shrinks all workloads by 64x so the suite completes in
// minutes; -scale 1 -full reproduces paper-scale sizes (needs tens of GB of
// RAM and hours of CPU time).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ipusparse/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment to run: all, "+strings.Join(bench.Names(), ", "))
	scale := flag.Int("scale", 64, "divide paper-scale workloads by this factor")
	tiles := flag.Int("tiles", 64, "simulated tiles per chip for single-chip experiments")
	full := flag.Bool("full", false, "use the full Mk2 M2000 tile counts")
	seed := flag.Int64("seed", 42, "seed for synthetic right-hand sides")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of the table (an error for an experiment without a CSV form)")
	jsonOut := flag.String("json", "", "also write the study's BENCH_<experiment>.json artifact to this file (an error for an experiment without one)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	o := bench.Options{
		Scale:       *scale,
		Tiles:       *tiles,
		FullMachine: *full,
		Seed:        *seed,
		Out:         os.Stdout,
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	t0 := time.Now()
	if err := runSuite(o, *experiment, *csvOut, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
	if !*csvOut {
		fmt.Printf("done in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
	}
}

func runSuite(o bench.Options, experiment string, csvOut bool, jsonOut string) error {
	if csvOut {
		return bench.RunCSV(o, experiment, os.Stdout)
	}
	if jsonOut != "" {
		return bench.RunJSON(o, experiment, jsonOut)
	}
	return bench.Run(o, experiment)
}
