package levelset

import (
	"reflect"
	"testing"
	"testing/quick"

	"ipusparse/internal/sparse"
)

func depsLower(m *sparse.Matrix) func(int) []int {
	return func(i int) []int {
		var d []int
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			if m.Cols[k] < i {
				d = append(d, m.Cols[k])
			}
		}
		return d
	}
}

func TestChainIsSequential(t *testing.T) {
	// 1-D Laplacian lower triangle is a chain: n levels of width 1.
	m := sparse.Laplacian1D(10)
	s := Lower(m.N, m.RowPtr, m.Cols)
	if s.NumLevels() != 10 {
		t.Errorf("chain levels = %d, want 10", s.NumLevels())
	}
	if s.MaxWidth() != 1 {
		t.Errorf("chain width = %d, want 1", s.MaxWidth())
	}
	if err := s.Validate(depsLower(m)); err != nil {
		t.Error(err)
	}
}

func TestDiagonalIsFullyParallel(t *testing.T) {
	// A diagonal matrix has no dependencies: one level with all rows.
	b := sparse.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.Set(i, i, 2)
	}
	m, _ := b.Build()
	s := Lower(m.N, m.RowPtr, m.Cols)
	if s.NumLevels() != 1 || s.MaxWidth() != 8 {
		t.Errorf("diagonal: levels=%d width=%d", s.NumLevels(), s.MaxWidth())
	}
}

func TestPoisson2DLevelsAreAntiDiagonals(t *testing.T) {
	// For the 5-point stencil in natural ordering, levels of the lower
	// triangle are the grid anti-diagonals: nx+ny-1 levels.
	m := sparse.Poisson2D(6, 4)
	s := Lower(m.N, m.RowPtr, m.Cols)
	if s.NumLevels() != 9 {
		t.Errorf("levels = %d, want 9", s.NumLevels())
	}
	if err := s.Validate(depsLower(m)); err != nil {
		t.Error(err)
	}
	if s.AvgWidth() < 2 {
		t.Errorf("avg width = %v", s.AvgWidth())
	}
}

func TestUpperMirrorsLower(t *testing.T) {
	m := sparse.Poisson2D(5, 5)
	lo := Lower(m.N, m.RowPtr, m.Cols)
	up := Upper(m.N, m.RowPtr, m.Cols)
	if lo.NumLevels() != up.NumLevels() {
		t.Errorf("lower %d levels, upper %d", lo.NumLevels(), up.NumLevels())
	}
	// In the upper schedule, the last row must be in level 0.
	if up.Of[m.N-1] != 0 {
		t.Error("upper: last row should be level 0")
	}
	if lo.Of[0] != 0 {
		t.Error("lower: first row should be level 0")
	}
	err := up.Validate(func(i int) []int {
		var d []int
		l, h := m.RowRange(i)
		for k := l; k < h; k++ {
			if m.Cols[k] > i {
				d = append(d, m.Cols[k])
			}
		}
		return d
	})
	if err != nil {
		t.Error(err)
	}
}

func TestHaloColumnsIgnored(t *testing.T) {
	// Columns >= n are halo references and must not create dependencies.
	rowPtr := []int{0, 1, 2}
	cols := []int{5, 6} // both halo
	s := Lower(2, rowPtr, cols)
	if s.NumLevels() != 1 {
		t.Errorf("halo-only deps should give 1 level, got %d", s.NumLevels())
	}
	u := Upper(2, rowPtr, cols)
	if u.NumLevels() != 1 {
		t.Errorf("upper halo-only deps should give 1 level, got %d", u.NumLevels())
	}
}

func TestScheduleProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := sparse.RandomSPD(60, 5, seed)
		s := Lower(m.N, m.RowPtr, m.Cols)
		if err := s.Validate(depsLower(m)); err != nil {
			return false
		}
		// Every row scheduled exactly once.
		total := 0
		for _, lv := range s.Levels {
			total += len(lv)
		}
		return total == m.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAssignBalances(t *testing.T) {
	m := sparse.Poisson2D(12, 12)
	s := Lower(m.N, m.RowPtr, m.Cols)
	a := s.Assign(6, nil)
	if a.Workers != 6 {
		t.Fatal("workers")
	}
	for l, level := range a.Rows {
		counts := make([]int, 6)
		seen := map[int]bool{}
		for w, rows := range level {
			counts[w] = len(rows)
			for _, r := range rows {
				if seen[r] {
					t.Fatalf("row %d assigned twice in level %d", r, l)
				}
				seen[r] = true
			}
		}
		if len(seen) != len(s.Levels[l]) {
			t.Fatalf("level %d: %d assigned, want %d", l, len(seen), len(s.Levels[l]))
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Errorf("level %d imbalance: min %d max %d", l, min, max)
		}
	}
}

func TestAssignClampsWorkers(t *testing.T) {
	m := sparse.Laplacian1D(4)
	s := Lower(m.N, m.RowPtr, m.Cols)
	a := s.Assign(0, nil)
	if a.Workers != 1 {
		t.Error("workers should clamp to 1")
	}
}

func TestCriticalCostSpeedup(t *testing.T) {
	// With 6 workers, the wide Poisson-2D levels must beat sequential cost.
	m := sparse.Poisson2D(16, 16)
	s := Lower(m.N, m.RowPtr, m.Cols)
	unit := func(row int) uint64 { return 100 }
	a := s.Assign(6, nil)
	par := a.CriticalCost(unit, 10)
	seq := s.SequentialCost(unit)
	if par >= seq {
		t.Errorf("parallel cost %d not better than sequential %d", par, seq)
	}
	// Speedup bounded by worker count.
	if float64(seq)/float64(par) > 6.01 {
		t.Errorf("speedup %.2f exceeds worker count", float64(seq)/float64(par))
	}
}

func TestCriticalCostChainGainsNothing(t *testing.T) {
	m := sparse.Laplacian1D(20)
	s := Lower(m.N, m.RowPtr, m.Cols)
	unit := func(row int) uint64 { return 100 }
	par := s.Assign(6, nil).CriticalCost(unit, 0)
	seq := s.SequentialCost(unit)
	if par != seq {
		t.Errorf("chain: parallel %d should equal sequential %d", par, seq)
	}
}

func TestValidateCatchesBrokenSchedule(t *testing.T) {
	m := sparse.Poisson2D(4, 4)
	s := Lower(m.N, m.RowPtr, m.Cols)
	// Corrupt: move a dependent row into level 0.
	bad := *s
	bad.Of = append([]int(nil), s.Of...)
	victim := s.Levels[1][0]
	bad.Of[victim] = 0
	bad.Levels = make([][]int, len(s.Levels))
	for i := range s.Levels {
		bad.Levels[i] = append([]int(nil), s.Levels[i]...)
	}
	bad.Levels[0] = append(bad.Levels[0], victim)
	bad.Levels[1] = bad.Levels[1][1:]
	if err := bad.Validate(depsLower(m)); err == nil {
		t.Error("expected validation error")
	}
}

func depsUpper(m *sparse.Matrix, n int) func(int) []int {
	return func(i int) []int {
		var d []int
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			if c := m.Cols[k]; c > i && c < n {
				d = append(d, c)
			}
		}
		return d
	}
}

// TestDirectMatchesFromDeps: the one-pass Lower/Upper build exactly the
// schedule FromDeps builds from explicit dependency lists, on generated
// patterns and on a leading block whose trailing columns are halo.
func TestDirectMatchesFromDeps(t *testing.T) {
	f := func(seed int64) bool {
		m := sparse.RandomSPD(60, 5, seed)
		for _, n := range []int{m.N, m.N / 2, 0} {
			lo, up := Lower(n, m.RowPtr, m.Cols), Upper(n, m.RowPtr, m.Cols)
			if !reflect.DeepEqual(lo, FromDeps(n, depsLower(m))) || !reflect.DeepEqual(up, FromDeps(n, depsUpper(m, n))) {
				return false
			}
			if order := lo.Order(); len(order) != n || cap(order) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestServedTileAllocations pins the Prepare-time cost of a schedule on the
// served tile shape (a 24x9 slab of poisson3d:24, 216 rows, the next planes
// halo): a handful of arrays, not a dependency slice per row.
func TestServedTileAllocations(t *testing.T) {
	m := sparse.Poisson3D(24, 24, 24)
	const n = 216
	lo := Lower(n, m.RowPtr, m.Cols)
	if lo.NumLevels() != 32 || !reflect.DeepEqual(lo, FromDeps(n, depsLower(m))) {
		t.Fatalf("served tile: %d levels, want the 32 anti-diagonals FromDeps finds", lo.NumLevels())
	}
	for name, build := range map[string]func(){
		"Lower": func() { Lower(n, m.RowPtr, m.Cols) },
		"Upper": func() { Upper(n, m.RowPtr, m.Cols) },
	} {
		if allocs := testing.AllocsPerRun(10, build); allocs > 6 {
			t.Errorf("%s on the served tile allocates %.0f times, want <= 6", name, allocs)
		}
	}
}
