package halo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"ipusparse/internal/partition"
	"ipusparse/internal/sparse"
)

// layoutDigest hashes every field of a Layout and of its localized matrices,
// in a fixed order, so two builds agree on the digest only when they agree
// bit for bit.
func layoutDigest(l *Layout, locals []*LocalMatrix) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ints := func(vs []int) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
		}
	}
	floats := func(vs []float64) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	refs := func(rs []RegionRef) {
		put(uint64(len(rs)))
		for _, r := range rs {
			ints([]int{r.Region, r.Offset, r.Len})
		}
	}
	ints([]int{l.NumTiles, l.N, len(l.Regions), len(l.Tiles), len(l.Program)})
	for _, r := range l.Regions {
		ints([]int{r.ID, r.Owner})
		ints(r.Involved)
		ints(r.Rows)
	}
	for _, tl := range l.Tiles {
		ints([]int{tl.Tile, tl.NumInterior, tl.NumOwned, tl.NumHalo})
		ints(tl.Owned)
		ints(tl.Halo)
		refs(tl.SepRegions)
		refs(tl.HaloRegions)
	}
	ints(l.Owner)
	ints(l.LocalIndex)
	for _, tr := range l.Program {
		ints([]int{tr.Region, tr.SrcTile, tr.SrcOff, tr.Len, len(tr.Dst)})
		for _, d := range tr.Dst {
			ints([]int{d.Tile, d.Off})
		}
	}
	put(uint64(len(locals)))
	for _, lm := range locals {
		ints([]int{lm.Tile, lm.NumOwned, lm.NumHalo})
		floats(lm.Diag)
		put(uint64(len(lm.RowPtr)))
		for _, v := range lm.RowPtr {
			put(uint64(v))
		}
		put(uint64(len(lm.Cols)))
		for _, v := range lm.Cols {
			put(uint64(v))
		}
		floats(lm.Vals)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// asymmetricRandom returns an n-row pattern with about perRow random
// off-diagonals per row and no symmetry: (i, j) stored says nothing of (j, i),
// so requirer sets differ from neighbour sets.
func asymmetricRandom(n, perRow int, seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Set(i, i, float64(perRow+1))
		for k := 0; k < perRow; k++ {
			if j := rng.Intn(n); j != i {
				b.Set(i, j, -rng.Float64())
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// TestLayoutGoldenDigest pins the complete output of Build and Localize —
// region IDs and order, tile layouts, the exchange program and every local
// matrix — on a 7-point and a 27-point stencil and an asymmetric random
// pattern. The layout is a pure function of the pattern and the partition;
// a change to how it is computed must leave every bit in place.
func TestLayoutGoldenDigest(t *testing.T) {
	cases := []struct {
		name string
		m    func() *sparse.Matrix
		part func(*sparse.Matrix) *partition.Partition
		want string
	}{
		{"poisson3d:24/64/contiguous", func() *sparse.Matrix { return sparse.Poisson3D(24, 24, 24) },
			func(m *sparse.Matrix) *partition.Partition { return partition.Contiguous(m, 64) },
			"036ceabc33e1b81ba9eb0a8f03ec49bbe8f0d24dba81dcc916437f08f6ce9cee"},
		{"stencil27:16/64/greedy", func() *sparse.Matrix { return sparse.Stencil27(16, 16, 16) },
			func(m *sparse.Matrix) *partition.Partition { return partition.GreedyGraph(m, 64) },
			"f003a65728d48120ffb8007197654c8b186519cadd96785e0f1c88c1aa69c3ac"},
		{"asymmetric:400/5/contiguous", func() *sparse.Matrix { return asymmetricRandom(400, 4, 7) },
			func(m *sparse.Matrix) *partition.Partition { return partition.Contiguous(m, 5) },
			"ddd962761f9b81ff92d27640014d7d182d98c12bd523047db26383e954708d18"},
	}
	for _, tc := range cases {
		m := tc.m()
		l, err := Build(m, tc.part(m))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		locals, err := Localize(m, l)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := layoutDigest(l, locals); got != tc.want {
			t.Errorf("%s: layout digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
