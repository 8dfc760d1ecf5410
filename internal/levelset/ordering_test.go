package levelset

import (
	"math/rand"
	"testing"

	"ipusparse/internal/sparse"
)

// TestOrderingChangesLevelStructure demonstrates why orderings still matter
// on the cacheless IPU: not for locality (paper §IV) but for the level-set
// parallelism of triangular sweeps. A random ordering of the 2-D Poisson
// graph produces a very different level structure than the natural ordering.
func TestOrderingChangesLevelStructure(t *testing.T) {
	m := sparse.Poisson2D(20, 20)
	natural := Lower(m.N, m.RowPtr, m.Cols)

	rng := rand.New(rand.NewSource(9))
	shuffled, err := m.Permute(rng.Perm(m.N))
	if err != nil {
		t.Fatal(err)
	}
	random := Lower(shuffled.N, shuffled.RowPtr, shuffled.Cols)

	// The natural anti-diagonal ordering gives nx+ny-1 levels; a random
	// ordering collapses the dependency depth drastically (most rows see
	// few already-numbered neighbors).
	if random.NumLevels() >= natural.NumLevels() {
		t.Errorf("random ordering has %d levels, natural %d — expected fewer",
			random.NumLevels(), natural.NumLevels())
	}
	// All orderings schedule every row exactly once.
	for name, s := range map[string]*Schedule{
		"natural": natural, "random": random,
	} {
		total := 0
		for _, lv := range s.Levels {
			total += len(lv)
		}
		if total != m.N {
			t.Errorf("%s: %d rows scheduled", name, total)
		}
	}
	t.Logf("levels: natural=%d random=%d (avg width %.1f / %.1f)",
		natural.NumLevels(), random.NumLevels(), natural.AvgWidth(), random.AvgWidth())
}

// TestLevelSetCostOrderingImpact: the six-worker parallel sweep cost depends
// on the ordering through the level structure.
func TestLevelSetCostOrderingImpact(t *testing.T) {
	m := sparse.Poisson2D(24, 24)
	unit := func(row int) uint64 { return 50 }
	costOf := func(mm *sparse.Matrix) uint64 {
		s := Lower(mm.N, mm.RowPtr, mm.Cols)
		return s.Assign(6, nil).CriticalCost(unit, 20)
	}
	natural := costOf(m)
	rng := rand.New(rand.NewSource(10))
	shuffled, _ := m.Permute(rng.Perm(m.N))
	random := costOf(shuffled)
	if random == natural {
		t.Skip("orderings coincidentally equal")
	}
	t.Logf("sweep cost natural=%d random=%d", natural, random)
	// Sanity: both are bounded below by the perfectly parallel cost and
	// above by the sequential cost.
	seq := Lower(m.N, m.RowPtr, m.Cols).SequentialCost(unit)
	for name, c := range map[string]uint64{"natural": natural, "random": random} {
		if c > seq {
			t.Errorf("%s parallel cost %d exceeds sequential %d", name, c, seq)
		}
		if c < seq/6 {
			t.Errorf("%s parallel cost %d beats the 6-worker bound %d", name, c, seq/6)
		}
	}
}
