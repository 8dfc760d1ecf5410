package bench

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestScalingCSV(t *testing.T) {
	pts := []ScalingPoint{
		{Chips: 1, Tiles: 16, Rows: 100, NNZ: 500, TotalSec: 1e-5, ComputeSec: 9e-6, ExchangeSec: 1e-6, Speedup: 1, SpeedupComp: 1},
		{Chips: 2, Tiles: 32, Rows: 100, NNZ: 500, TotalSec: 5e-6, ComputeSec: 4.5e-6, ExchangeSec: 5e-7, Speedup: 2, SpeedupComp: 2},
	}
	var buf bytes.Buffer
	if err := WriteScalingCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][0] != "chips" || recs[2][0] != "2" {
		t.Errorf("records = %v", recs)
	}
}

func TestCompareCSV(t *testing.T) {
	rows := []CompareRow{{Matrix: "G3_circuit", Rows: 10, NNZ: 50, CPUSec: 1, GPUSec: 0.1, IPUSec: 0.01, CPUIters: 8, IPUIters: 40}}
	var buf bytes.Buffer
	if err := WriteCompareCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "G3_circuit") || !strings.Contains(out, "ipu_s") {
		t.Errorf("csv = %q", out)
	}
}

func TestConvergenceCSV(t *testing.T) {
	series := []ConvSeries{{Config: "mpir-dw", Points: []ConvPoint{{Iter: 1, RelRes: 0.5}, {Iter: 2, RelRes: 1e-13}}}}
	var buf bytes.Buffer
	if err := WriteConvergenceCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[1][0] != "mpir-dw" {
		t.Errorf("records = %v", recs)
	}
}

func TestTable4CSV(t *testing.T) {
	rows := []Table4Row{{Operation: "SpMV", ShareDW: 0.07, ShareDP: 0.06}}
	var buf bytes.Buffer
	if err := WriteTable4CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SpMV") {
		t.Error("missing row")
	}
}

func TestRunCSVEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	o := fastOpts()
	o.Scale = 1024
	if err := RunCSV(o, "fig5", &buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 { // header + 5 machine sizes
		t.Errorf("fig5 csv has %d records", len(recs))
	}
	if err := RunCSV(o, "table1", &buf); err == nil || !strings.Contains(err.Error(), "no CSV writer") {
		t.Errorf("table1 has no CSV writer, got %v", err)
	}
	if err := RunCSV(o, "fig99", &buf); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("fig99 is not an experiment, got %v", err)
	}
}
