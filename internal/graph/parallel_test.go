package graph

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"ipusparse/internal/ipu"
)

// parallelTestMachine builds a machine with enough tiles to exercise many
// shards (DefaultConfig is 4 tiles — too few to split).
func parallelTestMachine(t *testing.T) *ipu.Machine {
	t.Helper()
	cfg := ipu.Mk2M2000()
	cfg.TilesPerChip = 128
	cfg.Chips = 2
	m, err := ipu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// parallelTestProgram schedules a few supersteps over every tile plus an
// exchange with one move per tile, with tile-dependent cycle costs, so the
// compute sharding is exercised next to the exchange accounting.
func parallelTestProgram(m *ipu.Machine, ran *atomic.Int64) *Sequence {
	nt := m.NumTiles()
	prog := &Sequence{Name: "par-test"}
	for step := 0; step < 3; step++ {
		cs := NewComputeSet("work", "Work")
		for tile := 0; tile < nt; tile++ {
			tile, step := tile, step
			cs.Add(tile, CodeletFunc(func() uint64 {
				ran.Add(1)
				return uint64(7 + (tile*131+step*17)%97)
			}))
		}
		prog.Append(Compute{Set: cs})
		var moves []Move
		for tile := 0; tile < nt; tile++ {
			moves = append(moves, Move{
				SrcTile:  tile,
				DstTiles: []int{(tile + 1) % nt, (tile + nt/2) % nt},
				Bytes:    64 + 8*(tile%5),
			})
		}
		prog.Append(Exchange{Name: "halo", Label: "Halo", Moves: moves})
	}
	return prog
}

// TestEngineParallelismIdentical runs one program at several parallelism
// levels and requires identical profiles, superstep counts, machine stats and
// codelet execution counts.
func TestEngineParallelismIdentical(t *testing.T) {
	type snapshot struct {
		profile    map[string]uint64
		supersteps uint64
		stats      ipu.Stats
		ran        int64
	}
	run := func(par int) snapshot {
		m := parallelTestMachine(t)
		var ran atomic.Int64
		prog := parallelTestProgram(m, &ran)
		e := NewEngine(m)
		e.SetParallelism(par)
		if err := e.Run(prog); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return snapshot{profile: e.Profile, supersteps: e.Supersteps, stats: m.Stats(), ran: ran.Load()}
	}
	base := run(1)
	if base.supersteps != 3 {
		t.Fatalf("baseline ran %d supersteps, want 3", base.supersteps)
	}
	for _, par := range []int{2, 5, 8, 64} {
		got := run(par)
		if !reflect.DeepEqual(base.profile, got.profile) {
			t.Errorf("parallelism %d: profile = %v, want %v", par, got.profile, base.profile)
		}
		if got.supersteps != base.supersteps {
			t.Errorf("parallelism %d: %d supersteps, want %d", par, got.supersteps, base.supersteps)
		}
		if got.stats != base.stats {
			t.Errorf("parallelism %d: machine stats = %+v, want %+v", par, got.stats, base.stats)
		}
		if got.ran != base.ran {
			t.Errorf("parallelism %d: %d codelet runs, want %d", par, got.ran, base.ran)
		}
	}
}

// TestEngineParallelErrorDeterministic: when several shards fail, the error
// surfaced must be the one with the smallest program-order index at every
// parallelism level.
func TestEngineParallelErrorDeterministic(t *testing.T) {
	mkProg := func(nt int) *Sequence {
		cs := NewComputeSet("bad", "Bad")
		for tile := 0; tile < nt; tile++ {
			cs.Add(tile, CodeletFunc(func() uint64 { return 1 }))
		}
		cs.Add(nt+3, CodeletFunc(func() uint64 { return 1 }))  // invalid, later index
		cs.Add(nt+11, CodeletFunc(func() uint64 { return 1 })) // invalid, even later
		prog := &Sequence{}
		prog.Append(Compute{Set: cs})
		return prog
	}
	var want string
	for _, par := range []int{1, 2, 8, 32} {
		m := parallelTestMachine(t)
		e := NewEngine(m)
		e.SetParallelism(par)
		err := e.Run(mkProg(m.NumTiles()))
		if err == nil {
			t.Fatalf("parallelism %d: invalid tile not reported", par)
		}
		var se *StepError
		if !errors.As(err, &se) {
			t.Fatalf("parallelism %d: error %T is not a StepError", par, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("parallelism %d: error %q, want %q", par, err.Error(), want)
		}
	}
}

// TestFreezeThenAddRefreezes: mutating a compute set after Finalize must
// invalidate the frozen form so the next execution sees the new vertex.
func TestFreezeThenAddRefreezes(t *testing.T) {
	m := parallelTestMachine(t)
	cs := NewComputeSet("grow", "Grow")
	var ran atomic.Int64
	cs.Add(0, CodeletFunc(func() uint64 { ran.Add(1); return 1 }))
	cs.Finalize()
	cs.Add(1, CodeletFunc(func() uint64 { ran.Add(1); return 1 }))
	prog := &Sequence{}
	prog.Append(Compute{Set: cs})
	Freeze(prog)
	e := NewEngine(m)
	if err := e.Run(prog); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d codelets, want 2 (stale frozen form?)", got)
	}
}

// TestReserveAvoidsScratchGrowth: a reserved engine must not grow its
// transfer scratch during execution.
func TestReserveAvoidsScratchGrowth(t *testing.T) {
	m := parallelTestMachine(t)
	var ran atomic.Int64
	prog := parallelTestProgram(m, &ran)
	e := NewEngine(m)
	r := Analyze(prog)
	if r.MaxExchangeMoves != m.NumTiles() {
		t.Fatalf("MaxExchangeMoves = %d, want %d", r.MaxExchangeMoves, m.NumTiles())
	}
	e.Reserve(r.MaxExchangeMoves)
	capBefore := cap(e.transferScratch)
	if capBefore < r.MaxExchangeMoves {
		t.Fatalf("Reserve left cap %d < %d moves", capBefore, r.MaxExchangeMoves)
	}
	if err := e.Run(prog); err != nil {
		t.Fatal(err)
	}
	if cap(e.transferScratch) != capBefore {
		t.Errorf("scratch grew from %d to %d during run", capBefore, cap(e.transferScratch))
	}
}

// TestResetProfileReusesMap: ResetProfile must clear in place, not allocate a
// fresh map.
func TestResetProfileReusesMap(t *testing.T) {
	e := newEngine(t)
	e.Profile["SpMV"] = 123
	e.Supersteps = 9
	before := reflect.ValueOf(e.Profile).Pointer()
	e.ResetProfile()
	if len(e.Profile) != 0 || e.Supersteps != 0 {
		t.Fatalf("ResetProfile left %v / %d supersteps", e.Profile, e.Supersteps)
	}
	if reflect.ValueOf(e.Profile).Pointer() != before {
		t.Error("ResetProfile reallocated the profile map")
	}
}
