// Package levelset implements Level-Set Scheduling (Anderson & Saad; Saltz),
// the parallelization technique the framework uses for inherently sequential
// solvers (paper §V-A).
//
// The data dependencies of a forward substitution (or Gauss-Seidel sweep) are
// given by the strictly lower triangular pattern of the matrix: row i depends
// on every row j < i with a stored entry (i, j). These dependencies form a
// DAG whose topological levels group rows that may be processed in parallel.
// Processing levels in order with a synchronization between levels yields
// bit-identical results to the sequential algorithm, and therefore the same
// convergence rate.
//
// On the IPU each tile schedules the rows of a level across its six worker
// threads and synchronizes between levels (the IPUTHREADING role: a single
// compute set spawning and syncing workers per level, instead of one Poplar
// compute set per level, which would blow up graph compile time).
package levelset

import "fmt"

// Schedule is a level-set schedule over n rows.
type Schedule struct {
	NumRows int
	Levels  [][]int // Levels[l] lists the rows of level l, ascending
	Of      []int   // Of[row] = level index
}

// NumLevels returns the number of levels (the critical path length).
func (s *Schedule) NumLevels() int { return len(s.Levels) }

// MaxWidth returns the size of the largest level.
func (s *Schedule) MaxWidth() int {
	w := 0
	for _, lv := range s.Levels {
		if len(lv) > w {
			w = len(lv)
		}
	}
	return w
}

// AvgWidth returns the mean level width — the average exploitable
// parallelism. The paper observes this often saturates six workers per tile
// while being far too small for thousands of GPU threads.
func (s *Schedule) AvgWidth() float64 {
	if len(s.Levels) == 0 {
		return 0
	}
	return float64(s.NumRows) / float64(len(s.Levels))
}

// Validate checks that the schedule is a correct topological clustering for
// the given dependency function.
func (s *Schedule) Validate(deps func(i int) []int) error {
	if len(s.Of) != s.NumRows {
		return fmt.Errorf("levelset: Of has %d entries, want %d", len(s.Of), s.NumRows)
	}
	count := 0
	for l, rows := range s.Levels {
		for _, r := range rows {
			if s.Of[r] != l {
				return fmt.Errorf("levelset: row %d in level %d but Of says %d", r, l, s.Of[r])
			}
			count++
			for _, d := range deps(r) {
				if s.Of[d] >= l {
					return fmt.Errorf("levelset: row %d (level %d) depends on %d (level %d)",
						r, l, d, s.Of[d])
				}
			}
		}
	}
	if count != s.NumRows {
		return fmt.Errorf("levelset: %d rows scheduled, want %d", count, s.NumRows)
	}
	return nil
}

// FromDeps builds the schedule for n rows with the given dependency lists
// (deps(i) must return row indices < n; the dependency graph must be acyclic,
// which holds for triangular patterns by construction). Runs in O(n + nnz).
func FromDeps(n int, deps func(i int) []int) *Schedule {
	s := &Schedule{NumRows: n, Of: make([]int, n)}
	for i := range s.Of {
		s.Of[i] = -1
	}
	// Triangular dependency DAGs are naturally processed in index order:
	// level(i) = 1 + max(level(j)) over dependencies. For forward patterns
	// deps point to smaller indices; for backward patterns to larger ones,
	// so we resolve iteratively with a worklist-free two-pass (index order,
	// then reverse order) — one of the two passes settles all rows.
	resolve := func(order []int) bool {
		done := true
		for _, i := range order {
			lv := 0
			ok := true
			for _, d := range deps(i) {
				if s.Of[d] < 0 {
					ok = false
					break
				}
				if s.Of[d]+1 > lv {
					lv = s.Of[d] + 1
				}
			}
			if ok {
				s.Of[i] = lv
			} else {
				done = false
			}
		}
		return done
	}
	fwd := make([]int, n)
	bwd := make([]int, n)
	for i := 0; i < n; i++ {
		fwd[i] = i
		bwd[i] = n - 1 - i
	}
	if !resolve(fwd) {
		for i := range s.Of {
			s.Of[i] = -1
		}
		if !resolve(bwd) {
			panic("levelset: dependency graph is not triangular")
		}
	}
	s.bucket()
	return s
}

// bucket counting-sorts the rows into Levels by s.Of: every level is a window
// of one backing array, rows ascending inside it.
func (s *Schedule) bucket() {
	levels := 0
	for _, l := range s.Of {
		if l >= levels {
			levels = l + 1
		}
	}
	start := make([]int, levels+1)
	for _, l := range s.Of {
		start[l+1]++
	}
	for l := 0; l < levels; l++ {
		start[l+1] += start[l]
	}
	rows := make([]int, s.NumRows)
	s.Levels = make([][]int, levels)
	for l := range s.Levels {
		s.Levels[l] = rows[start[l]:start[l]:start[l+1]]
	}
	for i, l := range s.Of {
		s.Levels[l] = append(s.Levels[l], i) // within the window: no growth
	}
}

// Order returns the rows level by level, ascending inside a level: a
// topological order of the dependency DAG.
func (s *Schedule) Order() []int {
	order := make([]int, 0, s.NumRows)
	for _, lv := range s.Levels {
		order = append(order, lv...)
	}
	return order
}

// Lower builds the schedule of a forward substitution: row i depends on
// stored entries (i, j) with j < i. Columns >= n (halo columns of a local
// matrix) carry values from the previous exchange and are not dependencies.
// The index type is the matrix's own: int for a global sparse.Matrix, int32
// for a tile-local block. Dependencies point to smaller indices, so one pass
// in index order settles every level.
func Lower[I int | int32](n int, rowPtr, cols []I) *Schedule {
	s := &Schedule{NumRows: n, Of: make([]int, n)}
	for i := 0; i < n; i++ {
		lv := 0
		for _, c := range cols[rowPtr[i]:rowPtr[i+1]] {
			if j := int(c); j < i && s.Of[j] >= lv {
				lv = s.Of[j] + 1
			}
		}
		s.Of[i] = lv
	}
	s.bucket()
	return s
}

// Upper builds the schedule of a backward substitution: row i depends on
// stored entries (i, j) with i < j < n, settled in one pass in reverse order.
func Upper[I int | int32](n int, rowPtr, cols []I) *Schedule {
	s := &Schedule{NumRows: n, Of: make([]int, n)}
	for i := n - 1; i >= 0; i-- {
		lv := 0
		for _, c := range cols[rowPtr[i]:rowPtr[i+1]] {
			if j := int(c); j > i && j < n && s.Of[j] >= lv {
				lv = s.Of[j] + 1
			}
		}
		s.Of[i] = lv
	}
	s.bucket()
	return s
}

// Assignment maps every level's rows onto a fixed number of workers.
type Assignment struct {
	Workers int
	// Rows[level][worker] lists the rows that worker processes in the level.
	Rows [][][]int
}

// Assign distributes each level's rows across workers, balancing the given
// per-row cost greedily (longest processing time first is unnecessary here:
// rows within a level have similar cost, so a round-robin by running cost is
// used). cost may be nil for unit cost.
func (s *Schedule) Assign(workers int, cost func(row int) int) *Assignment {
	if workers < 1 {
		workers = 1
	}
	a := &Assignment{Workers: workers, Rows: make([][][]int, len(s.Levels))}
	for l, rows := range s.Levels {
		a.Rows[l] = make([][]int, workers)
		load := make([]int, workers)
		for _, r := range rows {
			// Pick the least-loaded worker.
			w := 0
			for i := 1; i < workers; i++ {
				if load[i] < load[w] {
					w = i
				}
			}
			a.Rows[l][w] = append(a.Rows[l][w], r)
			c := 1
			if cost != nil {
				c = cost(r)
			}
			load[w] += c
		}
	}
	return a
}

// CriticalCost returns the schedule's parallel cost under the model: for each
// level, the maximum worker cost; plus syncCost per level boundary. This is
// what the simulated tile charges for a level-set-scheduled solve.
func (a *Assignment) CriticalCost(cost func(row int) uint64, syncCost uint64) uint64 {
	var total uint64
	for _, level := range a.Rows {
		var max uint64
		for _, rows := range level {
			var c uint64
			for _, r := range rows {
				c += cost(r)
			}
			if c > max {
				max = c
			}
		}
		total += max + syncCost
	}
	return total
}

// SequentialCost returns the cost of processing all rows on one worker with
// no level synchronization, for the level-set ablation.
func (s *Schedule) SequentialCost(cost func(row int) uint64) uint64 {
	var total uint64
	for i := 0; i < s.NumRows; i++ {
		total += cost(i)
	}
	return total
}
