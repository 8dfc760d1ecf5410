package bench

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV writers for the figure data, so the series can be re-plotted with any
// tool. Each writer emits a header row followed by one record per data point.

// WriteScalingCSV writes fig5/fig6 points.
func WriteScalingCSV(w io.Writer, pts []ScalingPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"chips", "tiles", "rows", "nnz", "total_s", "compute_s", "exchange_s", "speedup", "speedup_compute"}); err != nil {
		return err
	}
	for _, p := range pts {
		rec := []string{
			strconv.Itoa(p.Chips), strconv.Itoa(p.Tiles),
			strconv.Itoa(p.Rows), strconv.Itoa(p.NNZ),
			fmtF(p.TotalSec), fmtF(p.ComputeSec), fmtF(p.ExchangeSec),
			fmtF(p.Speedup), fmtF(p.SpeedupComp),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCompareCSV writes fig7/fig8 rows.
func WriteCompareCSV(w io.Writer, rows []CompareRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"matrix", "rows", "nnz", "cpu_s", "gpu_s", "ipu_s",
		"cpu_iters", "ipu_iters", "cpu_J", "gpu_J", "ipu_J"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Matrix, strconv.Itoa(r.Rows), strconv.Itoa(r.NNZ),
			fmtF(r.CPUSec), fmtF(r.GPUSec), fmtF(r.IPUSec),
			strconv.Itoa(r.CPUIters), strconv.Itoa(r.IPUIters),
			fmtF(r.CPUJoule), fmtF(r.GPUJoule), fmtF(r.IPUJoule),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteConvergenceCSV writes fig9/fig10 series in long format
// (config, iter, relres).
func WriteConvergenceCSV(w io.Writer, series []ConvSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"config", "iter", "relres"}); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if err := cw.Write([]string{s.Config, strconv.Itoa(p.Iter), fmtF(p.RelRes)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable4CSV writes the profile shares.
func WriteTable4CSV(w io.Writer, rows []Table4Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"operation", "share_dw", "share_dp"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.Operation, fmtF(r.ShareDW), fmtF(r.ShareDP)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
