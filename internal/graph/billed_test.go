package graph

import (
	"errors"
	"strings"
	"testing"

	"ipusparse/internal/ipu"
)

// billedProgram is one billed set, run reps times: tile 0 bills workers of 10
// and 30 cycles, tile 3 one of 20, and the kernel copies src to dst.
func billedProgram(src, dst *Buffer, runs *int, reps int) *Sequence {
	cs := NewComputeSet("copy", "Copy")
	cs.Add(0, Fixed(10))
	cs.Add(0, Fixed(30))
	cs.Add(3, Fixed(20))
	cs.NativeKernel = OpaqueKernel(func() {
		*runs++
		copy(dst.F32, src.F32)
	}, []*Buffer{src}, []*Buffer{dst})
	body := &Sequence{}
	body.Append(Compute{Set: cs})
	prog := &Sequence{}
	prog.Append(Repeat{N: reps, Body: body})
	return prog
}

func TestBilledSetRunsKernelAndBillsMaxWorker(t *testing.T) {
	e := newEngine(t)
	src, dst := NewBuffer(ipu.F32, 4), NewBuffer(ipu.F32, 4)
	src.Fill(5)
	runs := 0
	if err := e.Run(billedProgram(src, dst, &runs, 3)); err != nil {
		t.Fatal(err)
	}
	if runs != 3 || dst.Get(2) != 5 {
		t.Fatalf("kernel ran %d times leaving %v, want 3 and 5", runs, dst.Get(2))
	}
	st := e.M.Stats()
	if st.ComputeCycles != 3*30 || st.Supersteps != 3 || e.Profile["Copy"] != st.ComputeCycles+st.SyncCycles {
		t.Fatalf("compute %d cycles in %d supersteps, profile %d", st.ComputeCycles, st.Supersteps, e.Profile["Copy"])
	}
	if c0, c3 := e.M.Tile(0).Cycles, e.M.Tile(3).Cycles; c0 != 90 || c3 != 60 {
		t.Fatalf("tile cycles %d and %d, want 90 and 60", c0, c3)
	}
}

// stallInjector flips src[0] and stalls one tile on its only compute
// consultation, and counts consultations.
type stallInjector struct {
	src   *Buffer
	tile  int
	stall uint64
	calls int
}

func (s *stallInjector) ComputeFault(string, uint64, int) (int, uint64) {
	s.calls++
	s.src.Set(0, 99)
	return s.tile, s.stall
}
func (*stallInjector) MoveFault(string, uint64, int, []MoveTarget) (MoveAction, error) {
	return MoveDeliver, nil
}
func (*stallInjector) CorruptPayload(string, uint64, []MoveTarget) {}
func (*stallInjector) HostFault(string, uint64) error              { return nil }

// TestBilledSetUnderInjector: a billed set consults the injector once per
// superstep, before its kernel runs, so the kernel computes on the flipped
// memory; a stall lengthens the stalled tile's bill, populated or not.
func TestBilledSetUnderInjector(t *testing.T) {
	for _, tc := range []struct {
		tile      int
		wantTile  uint64 // the stalled tile's cycles
		wantSuper uint64 // the superstep's compute cycles
	}{
		{tile: 3, wantTile: 20 + 100, wantSuper: 120},
		{tile: 5, wantTile: 100, wantSuper: 100},
		{tile: -1, wantTile: 0, wantSuper: 30},
	} {
		e := newEngine(t)
		src, dst := NewBuffer(ipu.F32, 4), NewBuffer(ipu.F32, 4)
		inj := &stallInjector{src: src, tile: tc.tile, stall: 100}
		e.Injector = inj
		runs := 0
		if err := e.Run(billedProgram(src, dst, &runs, 1)); err != nil {
			t.Fatal(err)
		}
		if inj.calls != 1 || runs != 1 {
			t.Fatalf("stall on tile %d: %d consultations, %d kernel runs; want 1 and 1", tc.tile, inj.calls, runs)
		}
		if dst.Get(0) != 99 {
			t.Fatalf("stall on tile %d: kernel computed %v, not the flipped 99", tc.tile, dst.Get(0))
		}
		if st := e.M.Stats(); st.ComputeCycles != tc.wantSuper {
			t.Fatalf("stall on tile %d: superstep %d cycles, want %d", tc.tile, st.ComputeCycles, tc.wantSuper)
		}
		if tc.tile >= 0 {
			if c := e.M.Tile(tc.tile).Cycles; c != tc.wantTile {
				t.Fatalf("stalled tile %d: %d cycles, want %d", tc.tile, c, tc.wantTile)
			}
		}
		if c := e.M.Tile(0).Cycles; c != 30 {
			t.Fatalf("stall on tile %d: tile 0 billed %d, want 30", tc.tile, c)
		}
	}
}

// TestValidateBilledSets: a billed set needs its native kernel, a set is
// billed or interpreted but never both, and a billed set may not oversubscribe
// a tile. The engine refuses the same sets when it first meets them.
func TestValidateBilledSets(t *testing.T) {
	cfg := ipu.DefaultConfig()
	noKernel := NewComputeSet("no-kernel", "x")
	noKernel.Add(0, Fixed(5))
	mixed := NewComputeSet("mixed", "x")
	mixed.Add(0, Fixed(5))
	mixed.Add(1, CodeletFunc(func() uint64 { return 5 }))
	mixed.NativeKernel = BarrierKernel(func() {})
	crowded := NewComputeSet("crowded", "x")
	for i := 0; i <= cfg.WorkersPerTile; i++ {
		crowded.Add(2, Fixed(5))
	}
	crowded.NativeKernel = BarrierKernel(func() {})
	for _, tc := range []struct {
		cs   *ComputeSet
		want string
	}{
		{noKernel, "no native kernel"},
		{mixed, "mixes cost-only and computing vertices"},
		{crowded, "oversubscribes tile 2"},
	} {
		prog := &Sequence{}
		prog.Append(Compute{Set: tc.cs})
		if err := Validate(prog, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.cs.Name, err, tc.want)
		}
		err := newEngine(t).Run(prog)
		if _, ok := AsStepError(err); !ok {
			t.Errorf("%s: engine ran it (%v), want a step error", tc.cs.Name, err)
		}
		if tc.cs == crowded && !errors.Is(err, ipu.ErrOversubscribed) {
			t.Errorf("crowded: %v, want ErrOversubscribed", err)
		}
	}
}

// TestExchangeBillReplayed: a fault-free exchange moves its data every time
// it runs and bills, every time, exactly what the machine charges for its
// transfer list.
func TestExchangeBillReplayed(t *testing.T) {
	e := newEngine(t)
	moved := 0
	x := Exchange{Name: "bcast", Label: "Exchange", Moves: []Move{
		{SrcTile: 0, DstTiles: []int{1, 2, 3}, Bytes: 64, Do: func() error { moved++; return nil }},
		{SrcTile: 2, DstTiles: []int{0}, Bytes: 400},
	}}
	body := &Sequence{}
	body.Append(x)
	prog := &Sequence{}
	prog.Append(Repeat{N: 3, Body: body})
	if err := e.Run(prog); err != nil {
		t.Fatal(err)
	}
	ref, err := ipu.New(ipu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ref.Exchange([]ipu.Transfer{transferFromMove(x.Moves[0]), transferFromMove(x.Moves[1])})
	}
	if moved != 3 {
		t.Fatalf("moved %d times, want 3", moved)
	}
	if got, want := e.M.Stats(), ref.Stats(); got != want {
		t.Fatalf("replayed bill %+v, want %+v", got, want)
	}
	for tile := 0; tile < ref.NumTiles(); tile++ {
		if got, want := e.M.Tile(tile).XBytes, ref.Tile(tile).XBytes; got != want {
			t.Fatalf("tile %d traffic %d, want %d", tile, got, want)
		}
	}
}
