package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3)
	b.Set(0, 0, 2)
	b.Set(0, 1, -1)
	b.Set(1, 0, -1)
	b.Set(1, 1, 2)
	b.Set(1, 2, -1)
	b.Set(2, 1, -1)
	b.Set(2, 2, 2)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 7 || m.OffDiagNNZ() != 4 {
		t.Errorf("NNZ=%d off=%d", m.NNZ(), m.OffDiagNNZ())
	}
	if m.At(0, 0) != 2 || m.At(0, 1) != -1 || m.At(0, 2) != 0 {
		t.Error("At wrong")
	}
}

func TestBuilderAccumulates(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(0, 1, 2)
	b.Add(0, 0, 5)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 3 || m.At(0, 0) != 5 {
		t.Error("Add should accumulate")
	}
}

func TestBuilderDropsExplicitZeros(t *testing.T) {
	b := NewBuilder(2)
	b.Set(0, 1, 0)
	b.Set(0, 0, 1)
	b.Set(1, 1, 1)
	m, _ := b.Build()
	if m.OffDiagNNZ() != 0 {
		t.Error("explicit off-diagonal zero should be dropped")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.Set(0, 5, 1.0)
	if _, err := b.Build(); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := Laplacian1D(4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m.Clone()
	bad.Cols[0] = 99
	if err := bad.Validate(); err == nil {
		t.Error("expected column range error")
	}
	bad = m.Clone()
	bad.RowPtr[1] = 3
	bad.RowPtr[2] = 1
	if err := bad.Validate(); err == nil {
		t.Error("expected monotonicity error")
	}
	bad = m.Clone()
	bad.Cols[0] = 0 // row 0's off-diag pointing at its own diagonal
	if err := bad.Validate(); err == nil {
		t.Error("expected diagonal-off-diagonal error")
	}
	bad = m.Clone()
	bad.Diag = bad.Diag[:2]
	if err := bad.Validate(); err == nil {
		t.Error("expected Diag length error")
	}
}

func TestMulVecLaplacian(t *testing.T) {
	m := Laplacian1D(5)
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	m.MulVec(x, y)
	want := []float64{0, 0, 0, 0, 6} // second difference of linear ramp
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestPoisson3DStructure(t *testing.T) {
	m := Poisson3D(4, 3, 2)
	if m.N != 24 {
		t.Fatalf("N = %d", m.N)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Error("Poisson3D must be symmetric")
	}
	st := m.ComputeStats()
	if !st.DiagDominant {
		t.Error("Poisson3D must be diagonally dominant")
	}
	if st.MaxPerRow != 6 { // z-dim of 2 allows at most 5 neighbors + diagonal
		t.Errorf("max per row = %d, want 6", st.MaxPerRow)
	}
	// Interior cell of a larger grid has exactly 6 neighbors.
	m = Poisson3D(5, 5, 5)
	if m.ComputeStats().MaxPerRow != 7 {
		t.Errorf("5^3 grid max per row = %d, want 7", m.ComputeStats().MaxPerRow)
	}
	center := (2*5+2)*5 + 2
	lo, hi := m.RowRange(center)
	if hi-lo != 6 {
		t.Errorf("interior row has %d off-diagonals, want 6", hi-lo)
	}
}

func TestPoisson2DAndStencil27(t *testing.T) {
	m := Poisson2D(4, 5)
	if m.N != 20 || m.Validate() != nil || !m.IsSymmetric(0) {
		t.Error("Poisson2D structure wrong")
	}
	s := Stencil27(4, 4, 4)
	if s.N != 64 || s.Validate() != nil {
		t.Error("Stencil27 structure wrong")
	}
	if !s.IsSymmetric(1e-12) {
		t.Error("Stencil27 must be symmetric")
	}
	if !s.ComputeStats().DiagDominant {
		t.Error("Stencil27 must be diagonally dominant")
	}
	// Interior cell has 26 neighbors.
	center := (1*4+1)*4 + 1
	lo, hi := s.RowRange(center)
	if hi-lo != 26 {
		t.Errorf("interior row has %d off-diagonals, want 26", hi-lo)
	}
}

func TestRandomSPD(t *testing.T) {
	m := RandomSPD(50, 6, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Error("RandomSPD must be symmetric")
	}
	if !m.ComputeStats().DiagDominant {
		t.Error("RandomSPD must be diagonally dominant")
	}
	if m.HasZeroDiagonal() {
		t.Error("RandomSPD must have nonzero diagonal")
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	m := RandomSPD(30, 4, 2)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(30)
	p, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Check A[i][j] == PA[perm[i]][perm[j]] entrywise.
	for i := 0; i < m.N; i++ {
		if m.Diag[i] != p.Diag[perm[i]] {
			t.Fatalf("diag mismatch at %d", i)
		}
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			j := m.Cols[k]
			if m.Vals[k] != p.At(perm[i], perm[j]) {
				t.Fatalf("entry (%d,%d) mismatch", i, j)
			}
		}
	}
	// Inverse permutation restores the matrix.
	inv := make([]int, 30)
	for o, n := range perm {
		inv[n] = o
	}
	back, err := p.Permute(inv)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Diag {
		if back.Diag[i] != m.Diag[i] {
			t.Fatal("round trip diag mismatch")
		}
	}
	if back.NNZ() != m.NNZ() {
		t.Fatal("round trip nnz mismatch")
	}
}

func TestPermuteSpMVCommutes(t *testing.T) {
	// Property: (P A Pᵀ)(P x) = P (A x).
	f := func(seed int64) bool {
		n := 25
		m := RandomSPD(n, 5, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		perm := rng.Perm(n)
		p, err := m.Permute(perm)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		px := make([]float64, n)
		for i := range x {
			px[perm[i]] = x[i]
		}
		y1 := make([]float64, n)
		m.MulVec(x, y1)
		y2 := make([]float64, n)
		p.MulVec(px, y2)
		for i := range y1 {
			if math.Abs(y1[i]-y2[perm[i]]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPermuteRejectsInvalid(t *testing.T) {
	m := Laplacian1D(3)
	if _, err := m.Permute([]int{0, 1}); err == nil {
		t.Error("expected length error")
	}
	if _, err := m.Permute([]int{0, 0, 1}); err == nil {
		t.Error("expected duplicate error")
	}
	if _, err := m.Permute([]int{0, 1, 5}); err == nil {
		t.Error("expected range error")
	}
}

func TestCSRConversionRoundTrip(t *testing.T) {
	m := RandomSPD(40, 5, 7)
	c := m.ToCSR()
	if c.N != m.N {
		t.Fatal("dims")
	}
	// CSR keeps all entries including the diagonal.
	if len(c.Vals) != m.NNZ() {
		t.Fatalf("csr nnz = %d, want %d", len(c.Vals), m.NNZ())
	}
	// SpMV agreement.
	x := make([]float64, m.N)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y1 := make([]float64, m.N)
	y2 := make([]float64, m.N)
	m.MulVec(x, y1)
	c.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("SpMV mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
	back, err := FromCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() {
		t.Fatal("round trip nnz")
	}
	for i := 0; i < m.N; i++ {
		if back.Diag[i] != m.Diag[i] {
			t.Fatal("round trip diag")
		}
	}
}

func TestModifiedCRSSavesMemory(t *testing.T) {
	// The paper's rationale for the format: no column indices for diagonals.
	m := Poisson3D(8, 8, 8)
	if m.Bytes() >= m.ToCSR().Bytes() {
		t.Errorf("modified CRS (%d B) should be smaller than CSR (%d B)",
			m.Bytes(), m.ToCSR().Bytes())
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := Laplacian1D(3)
	c := m.Clone()
	c.Diag[0] = 99
	c.Vals[0] = 99
	if m.Diag[0] == 99 || m.Vals[0] == 99 {
		t.Error("Clone must be deep")
	}
}

func TestGridDims3D(t *testing.T) {
	for _, n := range []int{8, 27, 64, 100, 1000, 12345} {
		nx, ny, nz := GridDims3D(n)
		if nx*ny*nz > n {
			t.Errorf("GridDims3D(%d) = %dx%dx%d exceeds n", n, nx, ny, nz)
		}
		if float64(nx*ny*nz) < 0.5*float64(n) {
			t.Errorf("GridDims3D(%d) = %dx%dx%d too small", n, nx, ny, nz)
		}
	}
}

func TestGenByName(t *testing.T) {
	cases := map[string]int{
		"poisson3d:4":     64,
		"poisson3d:4:3:2": 24,
		"poisson2d:5":     25,
		"poisson2d:4:6":   24,
		"stencil27:3":     27,
		"laplace1d:10":    10,
	}
	for spec, n := range cases {
		m, err := GenByName(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if m.N != n {
			t.Errorf("%s: N = %d, want %d", spec, m.N, n)
		}
	}
	if _, err := GenByName("nonsense:5"); err == nil {
		t.Error("expected error for unknown spec")
	}
}

func TestSuiteLikeProfiles(t *testing.T) {
	if len(SuiteLikeMatrices) != 4 {
		t.Fatal("expected 4 Table II matrices")
	}
	for _, s := range SuiteLikeMatrices {
		m := s.Generate(2000)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if !m.IsSymmetric(1e-12) {
			t.Errorf("%s: stand-in must be symmetric", s.Name)
		}
		if !m.ComputeStats().DiagDominant {
			t.Errorf("%s: stand-in must be diagonally dominant (SPD)", s.Name)
		}
		if m.HasZeroDiagonal() {
			t.Errorf("%s: zero diagonal", s.Name)
		}
	}
	if _, err := SuiteLikeByName("Geo_1438"); err != nil {
		t.Error(err)
	}
	if _, err := SuiteLikeByName("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestSuiteLikeDensityMatches(t *testing.T) {
	// The stand-in's nnz/row should be within 2x of the original's.
	for _, s := range SuiteLikeMatrices {
		m := s.Generate(500)
		got := float64(m.NNZ()) / float64(m.N)
		want := float64(s.PaperNNZ) / float64(s.PaperRows)
		if got < want/2.2 || got > want*2.2 {
			t.Errorf("%s: nnz/row = %.1f, paper %.1f", s.Name, got, want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	m := Laplacian1D(10)
	st := m.ComputeStats()
	if st.Rows != 10 || st.NNZ != 28 || st.Bandwidth != 1 || !st.Symmetric {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxPerRow != 3 {
		t.Errorf("MaxPerRow = %d", st.MaxPerRow)
	}
}

func TestConvectionDiffusionNonsymmetric(t *testing.T) {
	m := ConvectionDiffusion2D(8, 8, 2.0)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.IsSymmetric(1e-12) {
		t.Error("convection-diffusion with peclet>0 must be nonsymmetric")
	}
	if !m.ComputeStats().DiagDominant {
		t.Error("upwinded operator must stay diagonally dominant")
	}
	sym := ConvectionDiffusion2D(8, 8, 0)
	if !sym.IsSymmetric(1e-12) {
		t.Error("peclet=0 must recover the symmetric Poisson operator")
	}
}

func TestBandwidth(t *testing.T) {
	if bw := Laplacian1D(10).ComputeStats().Bandwidth; bw != 1 {
		t.Errorf("tridiagonal bandwidth = %d", bw)
	}
	if bw := Poisson2D(5, 5).ComputeStats().Bandwidth; bw != 5 {
		t.Errorf("5-point 5x5 bandwidth = %d, want 5", bw)
	}
}
