package core

import (
	"hash/fnv"
	"math"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
)

// TestNativeMPIRDigest pins the bits of warm solves of the service default
// hierarchy (config.Default(): mpir-dw+pbicgstab+ilu0) on both backends, 64
// tiles, b = A·w for a non-constant w: one FNV-1a per case over x's float64
// bits, the iteration count and RelRes's bits. The backends agree only at
// residual level on this hierarchy, so each has its own row. A rewrite of the
// DW residual, the DW norm or the fused dots that is meant to keep every
// output bit must leave every row untouched.
func TestNativeMPIRDigest(t *testing.T) {
	cases := []struct {
		gen      string
		strategy PartitionStrategy
		native   uint64
		sim      uint64
	}{
		{"poisson3d:24", PartitionContiguous, 0xb041858c0a10b7be, 0x0ab75ff2965e69dd},
		{"stencil27:12", PartitionGreedy, 0xd98a637fb12e7324, 0x37a91795b8e9e996},
		{"poisson2d:64", PartitionContiguous, 0x99a7cc8e4f0a7d7e, 0xc503e0afcad3f130},
	}
	for _, c := range cases {
		m, err := sparse.GenByName(c.gen)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, m.N)
		for i := range w {
			w[i] = 1 + 0.5*math.Cos(float64(i)/7)
		}
		b := make([]float64, m.N)
		m.MulVec(w, b)
		for _, be := range []struct {
			name string
			want uint64
		}{{"native", c.native}, {"sim", c.sim}} {
			p, err := Prepare(mpirMachine(), m, config.Default(), c.strategy, WithBackend(be.name))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Solve(b); err != nil {
				t.Fatal(err)
			}
			r, err := p.Solve(b) // the warm run
			if err != nil {
				t.Fatal(err)
			}
			if !r.Stats.Converged {
				t.Errorf("%s/%s: did not converge", c.gen, be.name)
			}
			h := fnv.New64a()
			for _, v := range r.X {
				putWord(h, math.Float64bits(v))
			}
			putWord(h, uint64(r.Stats.Iterations))
			putWord(h, math.Float64bits(r.Stats.RelRes))
			if got := h.Sum64(); got != be.want {
				t.Errorf("%s/%s (%s): digest %#016x, want %#016x", c.gen, be.name, c.strategy, got, be.want)
			}
		}
	}
}
