package graph

import (
	"errors"
	"maps"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"ipusparse/internal/ipu"
	"ipusparse/internal/twofloat"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	m, err := ipu.New(ipu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(m)
}

func TestBufferTypes(t *testing.T) {
	for _, s := range []ipu.Scalar{ipu.F32, ipu.DW, ipu.F64, ipu.I32} {
		b := NewBuffer(s, 5)
		if b.Len() != 5 {
			t.Errorf("%v: Len = %d", s, b.Len())
		}
		if b.Bytes() != 5*s.Size() {
			t.Errorf("%v: Bytes = %d", s, b.Bytes())
		}
		v := 1.5
		if s == ipu.I32 {
			v = 3 // integers truncate fractions
		}
		b.Set(2, v)
		if b.Get(2) != v {
			t.Errorf("%v: roundtrip got %v", s, b.Get(2))
		}
		if b.Get(0) != 0 {
			t.Errorf("%v: zero value", s)
		}
	}
}

func TestBufferPrecision(t *testing.T) {
	v := 1.000000001 // needs more than float32 precision
	f := NewBuffer(ipu.F32, 1)
	f.Set(0, v)
	if f.Get(0) == v {
		t.Error("float32 should round")
	}
	d := NewBuffer(ipu.DW, 1)
	d.Set(0, v)
	if math.Abs(d.Get(0)-v) > 1e-14 {
		t.Errorf("DW should hold %v, got %v", v, d.Get(0))
	}
	p := NewBuffer(ipu.F64, 1)
	p.Set(0, v)
	if p.Get(0) != v {
		t.Error("F64 should be exact")
	}
}

func TestBufferDWAccessors(t *testing.T) {
	b := NewBuffer(ipu.DW, 2)
	d := twofloat.FromFloat64(math.Pi)
	b.SetDW(0, d)
	if b.GetDW(0) != d {
		t.Error("DW roundtrip")
	}
	f := NewBuffer(ipu.F32, 1)
	f.SetDW(0, d)
	if f.F32[0] != float32(math.Pi) {
		t.Error("SetDW on F32 should round")
	}
}

func TestBufferCopyRange(t *testing.T) {
	for _, s := range []ipu.Scalar{ipu.F32, ipu.DW, ipu.F64, ipu.I32} {
		a := NewBuffer(s, 6)
		b := NewBuffer(s, 6)
		for i := 0; i < 6; i++ {
			a.Set(i, float64(i+1))
		}
		b.CopyRange(a, 1, 2, 3) // b[1:4] = a[2:5]
		want := []float64{0, 3, 4, 5, 0, 0}
		for i, w := range want {
			if b.Get(i) != w {
				t.Errorf("%v: b[%d] = %v, want %v", s, i, b.Get(i), w)
			}
		}
	}
}

func TestBufferCopyTypeMismatch(t *testing.T) {
	err := NewBuffer(ipu.F32, 1).CopyRange(NewBuffer(ipu.F64, 1), 0, 0, 1)
	if !errors.Is(err, ErrScalarMismatch) {
		t.Errorf("CopyRange err = %v, want ErrScalarMismatch", err)
	}
}

func TestBufferFill(t *testing.T) {
	b := NewBuffer(ipu.F32, 4)
	b.Fill(2.5)
	for i := 0; i < 4; i++ {
		if b.Get(i) != 2.5 {
			t.Fatal("fill failed")
		}
	}
}

func TestComputeRunsWorkersAndProfiles(t *testing.T) {
	e := newEngine(t)
	ran := 0
	cs := NewComputeSet("test", "Elementwise Ops")
	cs.Add(0, CodeletFunc(func() uint64 { ran++; return 100 }))
	cs.Add(0, CodeletFunc(func() uint64 { ran++; return 300 }))
	cs.Add(1, CodeletFunc(func() uint64 { ran++; return 50 }))
	var prog Sequence
	prog.Append(Compute{Set: cs})
	if err := e.Run(&prog); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("ran %d codelets, want 3", ran)
	}
	// Tile 0 takes max(100, 300) = 300 (worker slots overlap); superstep is
	// max over tiles + sync.
	want := 300 + e.M.Config().SyncCycles
	if got := e.Profile["Elementwise Ops"]; got != want {
		t.Errorf("profile = %d, want %d", got, want)
	}
	if e.Supersteps != 1 {
		t.Error("superstep count")
	}
}

func TestComputeEmptySetFree(t *testing.T) {
	e := newEngine(t)
	var prog Sequence
	prog.Append(Compute{Set: NewComputeSet("empty", "x")})
	if err := e.Run(&prog); err != nil {
		t.Fatal(err)
	}
	if len(e.Profile) != 0 || e.M.Stats().TotalCycles != 0 {
		t.Error("empty compute set should cost nothing")
	}
}

func TestComputeInvalidTile(t *testing.T) {
	e := newEngine(t)
	cs := NewComputeSet("bad", "x")
	cs.Add(10_000, CodeletFunc(func() uint64 { return 1 }))
	var prog Sequence
	prog.Append(Compute{Set: cs})
	if err := e.Run(&prog); err == nil {
		t.Error("expected invalid tile error")
	}
}

func TestExchangeMovesDataAndCharges(t *testing.T) {
	e := newEngine(t)
	src := NewBuffer(ipu.F32, 4)
	dst := NewBuffer(ipu.F32, 4)
	src.Fill(7)
	var prog Sequence
	prog.Append(Exchange{
		Name:  "halo",
		Label: "Exchange",
		Moves: []Move{{
			SrcTile: 0, DstTiles: []int{1}, Bytes: 16,
			Do: func() error { return dst.CopyRange(src, 0, 0, 4) },
		}},
	})
	if err := e.Run(&prog); err != nil {
		t.Fatal(err)
	}
	if dst.Get(3) != 7 {
		t.Error("exchange did not move data")
	}
	if e.Profile["Exchange"] == 0 {
		t.Error("exchange not profiled")
	}
	if e.M.Stats().Exchanges != 1 {
		t.Error("machine exchange not counted")
	}
}

func TestRepeat(t *testing.T) {
	e := newEngine(t)
	n := 0
	body := &Sequence{}
	body.Append(HostCall{Name: "inc", Fn: func() error { n++; return nil }})
	if err := e.Run(Repeat{N: 5, Body: body}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("repeat ran %d times", n)
	}
}

func TestWhile(t *testing.T) {
	e := newEngine(t)
	n := 0
	body := &Sequence{}
	body.Append(HostCall{Fn: func() error { n++; return nil }})
	w := While{Name: "loop", Cond: func() bool { return n < 3 }, Body: body}
	if err := e.Run(w); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("while ran %d times", n)
	}
}

func TestWhileMaxIter(t *testing.T) {
	e := newEngine(t)
	w := While{Name: "forever", Cond: func() bool { return true }, Body: &Sequence{}, MaxIter: 10}
	err := e.Run(w)
	if !errors.Is(err, ErrMaxIter) {
		t.Errorf("want ErrMaxIter, got %v", err)
	}
}

func TestIf(t *testing.T) {
	e := newEngine(t)
	var path string
	thenSeq := &Sequence{}
	thenSeq.Append(HostCall{Fn: func() error { path = "then"; return nil }})
	elseSeq := &Sequence{}
	elseSeq.Append(HostCall{Fn: func() error { path = "else"; return nil }})
	if err := e.Run(If{Cond: func() bool { return true }, Then: thenSeq, Else: elseSeq}); err != nil {
		t.Fatal(err)
	}
	if path != "then" {
		t.Error("then branch not taken")
	}
	if err := e.Run(If{Cond: func() bool { return false }, Then: thenSeq, Else: elseSeq}); err != nil {
		t.Fatal(err)
	}
	if path != "else" {
		t.Error("else branch not taken")
	}
	// nil branches are fine.
	if err := e.Run(If{Cond: func() bool { return true }}); err != nil {
		t.Fatal(err)
	}
}

func TestHostCallError(t *testing.T) {
	e := newEngine(t)
	boom := errors.New("boom")
	err := e.Run(HostCall{Name: "fail", Fn: func() error { return boom }})
	if !errors.Is(err, boom) {
		t.Errorf("want wrapped boom, got %v", err)
	}
}

func TestSequencePropagatesError(t *testing.T) {
	e := newEngine(t)
	var prog Sequence
	ran := false
	prog.Append(HostCall{Fn: func() error { return errors.New("stop") }})
	prog.Append(HostCall{Fn: func() error { ran = true; return nil }})
	if err := e.Run(&prog); err == nil {
		t.Error("expected error")
	}
	if ran {
		t.Error("sequence continued after error")
	}
}

func TestProfileShares(t *testing.T) {
	e := newEngine(t)
	e.addProfile("A", 300)
	e.addProfile("B", 100)
	e.addProfile("A", 100)
	shares := e.ProfileShares()
	if len(shares) != 2 || shares[0].Label != "A" || shares[0].Cycles != 400 {
		t.Fatalf("shares = %+v", shares)
	}
	if math.Abs(shares[0].Share-0.8) > 1e-12 {
		t.Errorf("A share = %v", shares[0].Share)
	}
	e.ResetProfile()
	if len(e.Profile) != 0 {
		t.Error("reset failed")
	}
}

func TestNestedControlFlow(t *testing.T) {
	// A While containing a Repeat containing a Compute — the shape of the
	// MPIR outer loop.
	e := newEngine(t)
	iter := 0
	inner := NewComputeSet("work", "Work")
	inner.Add(0, CodeletFunc(func() uint64 { return 10 }))
	innerSeq := &Sequence{}
	innerSeq.Append(Compute{Set: inner})
	rep := Repeat{N: 4, Body: innerSeq}
	outer := &Sequence{}
	outer.Append(rep)
	outer.Append(HostCall{Fn: func() error { iter++; return nil }})
	w := While{Name: "outer", Cond: func() bool { return iter < 3 }, Body: outer, MaxIter: 100}
	if err := e.Run(w); err != nil {
		t.Fatal(err)
	}
	if e.Supersteps != 12 {
		t.Errorf("supersteps = %d, want 12", e.Supersteps)
	}
}

// TestEngineLoweringCache: an engine lowers a program once and reuses the
// stream, and lowers again when handed another program or one that gained a
// step. Every run on the one engine leaves the profile, superstep count,
// machine stats and trace of a fresh engine running that program.
func TestEngineLoweringCache(t *testing.T) {
	type snapshot struct {
		profile    map[string]uint64
		supersteps uint64
		stats      ipu.Stats
		events     []TraceEvent
	}
	run := func(e *Engine, prog *Sequence) snapshot {
		e.ResetProfile()
		e.M.ResetStats()
		tr := e.Trace()
		if err := e.Run(prog); err != nil {
			t.Fatal(err)
		}
		return snapshot{maps.Clone(e.Profile), e.Supersteps, e.M.Stats(), tr.Events}
	}
	m := parallelTestMachine(t)
	var ran atomic.Int64
	runs := 0
	a := parallelTestProgram(m, &ran)
	b := billedProgram(NewBuffer(ipu.F32, 4), NewBuffer(ipu.F32, 4), &runs, 2)
	extra := NewComputeSet("extra", "Extra")
	extra.Add(1, CodeletFunc(func() uint64 { return 40 }))

	shared := NewEngine(m)
	for i, prog := range []*Sequence{a, b, a, a} {
		if i == 3 {
			a.Append(Compute{Set: extra})
		}
		got, want := run(shared, prog), run(NewEngine(parallelTestMachine(t)), prog)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on a reused engine:\n  got  %+v\n  want %+v", i, got, want)
		}
	}
	if got := shared.Supersteps; got != 4 {
		t.Fatalf("the appended step did not run: %d supersteps, want 4", got)
	}
}
