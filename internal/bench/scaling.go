package bench

import (
	"fmt"

	"ipusparse/internal/sparse"
)

// ScalingPoint is one machine size of a scaling study.
type ScalingPoint struct {
	Chips       int
	Tiles       int
	Rows        int
	NNZ         int
	TotalSec    float64 // SpMV including halo exchange
	ComputeSec  float64 // compute part only
	ExchangeSec float64
	Speedup     float64 // vs the first point (strong scaling)
	SpeedupComp float64
}

// spmvOnce builds the machine and system, runs one SpMV, and returns the
// phase times.
func (o Options) spmvOnce(row string, chips, nx, ny, nz int) (ScalingPoint, error) {
	m := sparse.Poisson3D(nx, ny, nz)
	cfg := o.machineConfig(chips)
	sess, sys, err := newSystem(cfg, m, nx, ny, nz)
	if err != nil {
		return ScalingPoint{}, err
	}
	x := sys.Vector("x")
	y := sys.Vector("y")
	if err := sys.SetGlobal(x, randVec(m.N, o.Seed)); err != nil {
		return ScalingPoint{}, err
	}
	sys.SpMV(y, x)
	eng, err := o.run(sess, fmt.Sprintf("%s/chips=%d", row, chips), nil)
	if err != nil {
		return ScalingPoint{}, err
	}
	st := eng.M.Stats()
	return ScalingPoint{
		Chips:       chips,
		Tiles:       cfg.NumTiles(),
		Rows:        m.N,
		NNZ:         m.NNZ(),
		TotalSec:    st.Seconds,
		ComputeSec:  float64(st.ComputeCycles) / cfg.ClockHz,
		ExchangeSec: float64(st.ExchangeCycles) / cfg.ClockHz,
	}, nil
}

// Fig5 reproduces the strong-scaling study: one SpMV on a fixed Poisson
// matrix (paper: 200³ grid, 58M entries) while the number of IPUs grows from
// 1 to 16. Returns one point per machine size with speedups relative to one
// chip, for the full SpMV and for the compute part only (the paper's blue
// and orange curves).
func Fig5(o Options) ([]ScalingPoint, error) {
	o = o.withDefaults()
	// Paper grid 200³; scaled by cbrt(Scale).
	side := scaleSide(200, o.Scale)
	var out []ScalingPoint
	for _, chips := range []int{1, 2, 4, 8, 16} {
		p, err := o.spmvOnce("fig5", chips, side, side, side)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	base := out[0]
	for i := range out {
		out[i].Speedup = base.TotalSec / out[i].TotalSec
		out[i].SpeedupComp = base.ComputeSec / out[i].ComputeSec
	}
	return out, nil
}

// scaleSide shrinks a cubic grid side so the cell count drops by ~scale.
func scaleSide(side, scale int) int {
	if scale <= 1 {
		return side
	}
	f := 1.0
	for f*f*f < float64(scale) {
		f += 0.01
	}
	s := int(float64(side) / f)
	if s < 8 {
		s = 8
	}
	return s
}

// PrintFig5 renders the strong-scaling table.
func PrintFig5(o Options, pts []ScalingPoint) {
	o.printf("Fig 5: strong scaling of SpMV (Poisson %d rows, %d entries)\n", pts[0].Rows, pts[0].NNZ)
	o.printf("%6s %7s %12s %12s %12s %9s %9s\n", "chips", "tiles", "total[s]", "compute[s]", "exchange[s]", "speedup", "comp.spd")
	for _, p := range pts {
		o.printf("%6d %7d %12.3e %12.3e %12.3e %9.2f %9.2f\n",
			p.Chips, p.Tiles, p.TotalSec, p.ComputeSec, p.ExchangeSec, p.Speedup, p.SpeedupComp)
	}
	o.printf("\n")
}

// Fig6 reproduces the weak-scaling study: the grid grows with the machine so
// every tile keeps the same number of rows (paper: 58M to 890M entries).
// Ideal weak scaling keeps the total time flat; the IPU's all-to-all fabric
// keeps the halo-exchange time constant because per-tile traffic is constant.
func Fig6(o Options) ([]ScalingPoint, error) {
	o = o.withDefaults()
	side := scaleSide(200, o.Scale)
	var out []ScalingPoint
	for _, chips := range []int{1, 2, 4, 8, 16} {
		// Grow the z extent with the chip count: rows/tile stays constant.
		p, err := o.spmvOnce("fig6", chips, side, side, side*chips)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// PrintFig6 renders the weak-scaling table.
func PrintFig6(o Options, pts []ScalingPoint) {
	o.printf("Fig 6: weak scaling of SpMV (%d to %d entries, constant rows/tile)\n",
		pts[0].NNZ, pts[len(pts)-1].NNZ)
	o.printf("%6s %7s %10s %12s %12s %12s %10s\n", "chips", "tiles", "nnz", "total[s]", "compute[s]", "exchange[s]", "vs chip1")
	for _, p := range pts {
		o.printf("%6d %7d %10d %12.3e %12.3e %12.3e %10.2f\n",
			p.Chips, p.Tiles, p.NNZ, p.TotalSec, p.ComputeSec, p.ExchangeSec, p.TotalSec/pts[0].TotalSec)
	}
	o.printf("\n")
}
