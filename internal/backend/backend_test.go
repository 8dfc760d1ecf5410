package backend

import (
	"errors"
	"fmt"
	"testing"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

func testMachine(t *testing.T) *ipu.Machine {
	t.Helper()
	m, err := ipu.New(ipu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "sim", "simulator"} {
		be, err := ByName(name)
		if err != nil || be.Name() != "sim" {
			t.Fatalf("ByName(%q) = %v, %v", name, be, err)
		}
	}
	be, err := ByName("native")
	if err != nil || be.Name() != "native" {
		t.Fatalf("ByName(native) = %v, %v", be, err)
	}
	if _, err := ByName("fpga"); err == nil {
		t.Fatal("ByName accepted an unknown backend")
	}
	if !Sim.SupportsTrace() {
		t.Fatal("sim must support tracing")
	}
	if Native.SupportsTrace() {
		t.Fatal("native must not claim trace support")
	}
}

// countingStep returns a compute step whose execution appends tag to *trace.
func countingStep(name, tag string, trace *[]string) graph.Compute {
	cs := graph.NewComputeSet(name, "Test")
	cs.Add(0, graph.CodeletFunc(func() uint64 {
		*trace = append(*trace, tag)
		return 1
	}))
	return graph.Compute{Set: cs}
}

// TestNativeControlFlowMatchesEngine runs the same program — nested Repeat,
// While, If with both arms, host calls, a data-carrying exchange — on the
// cycle-accurate engine and the native backend, and requires the exact same
// side-effect trace.
func TestNativeControlFlowMatchesEngine(t *testing.T) {
	build := func(trace *[]string, iters *int) *graph.Sequence {
		prog := &graph.Sequence{Name: "root"}
		prog.Append(countingStep("pre", "pre", trace))

		// Repeat with a body of two steps.
		body := &graph.Sequence{}
		body.Append(countingStep("rep", "rep", trace))
		prog.Append(graph.Repeat{N: 3, Body: body})

		// While driven by a host-visible counter, with an If inside whose
		// branch flips each iteration.
		wbody := &graph.Sequence{}
		wbody.Append(graph.HostCall{Name: "tick", Fn: func() error {
			*iters++
			*trace = append(*trace, "tick")
			return nil
		}})
		then := &graph.Sequence{}
		then.Append(countingStep("then", "then", trace))
		els := &graph.Sequence{}
		els.Append(countingStep("else", "else", trace))
		wbody.Append(graph.If{
			Cond: func() bool { return *iters%2 == 0 },
			Then: then,
			Else: els,
		})
		prog.Append(graph.While{
			Name:    "loop",
			Cond:    func() bool { return *iters < 5 },
			Body:    wbody,
			MaxIter: 100,
		})

		// Exchange whose Do actually runs, plus an accounting-only move the
		// native backend must skip without effect.
		prog.Append(graph.Exchange{Name: "xchg", Moves: []graph.Move{
			{SrcTile: 0, DstTiles: []int{1}, Bytes: 4, Do: func() error {
				*trace = append(*trace, "move")
				return nil
			}},
			{SrcTile: 1, DstTiles: []int{0}, Bytes: 4}, // accounting only
		}})
		prog.Append(countingStep("post", "post", trace))
		return prog
	}

	var simTrace []string
	simIters := 0
	simProg := build(&simTrace, &simIters)
	graph.Freeze(simProg)
	eng := graph.NewEngine(testMachine(t))
	if err := eng.Run(simProg); err != nil {
		t.Fatalf("engine: %v", err)
	}

	var natTrace []string
	natIters := 0
	natProg := build(&natTrace, &natIters)
	graph.Freeze(natProg)
	exec, err := Native.Compile(natProg, testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(RunConfig{}); err != nil {
		t.Fatalf("native: %v", err)
	}

	if len(simTrace) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(simTrace) != fmt.Sprint(natTrace) {
		t.Fatalf("traces diverge:\n  sim:    %v\n  native: %v", simTrace, natTrace)
	}
	if simIters != natIters {
		t.Fatalf("while iterations: sim %d, native %d", simIters, natIters)
	}

	// Warm rerun: counters must reset so the program replays identically.
	natIters = 0
	rerun := natTrace
	natTrace = nil
	_ = rerun
	if _, err := exec.Run(RunConfig{}); err != nil {
		t.Fatalf("native warm: %v", err)
	}
	if fmt.Sprint(natTrace) != fmt.Sprint(simTrace) {
		t.Fatalf("warm native trace diverges:\n  cold: %v\n  warm: %v", simTrace, natTrace)
	}
}

// TestNativeKernelPreferred checks a compute set carrying a NativeKernel runs
// the kernel, not the codelets.
func TestNativeKernelPreferred(t *testing.T) {
	var ran string
	cs := graph.NewComputeSet("fused", "Test")
	cs.Add(0, graph.CodeletFunc(func() uint64 { ran = "codelet"; return 1 }))
	cs.NativeKernel = graph.BarrierKernel(func() { ran = "kernel" })
	prog := &graph.Sequence{}
	prog.Append(graph.Compute{Set: cs})
	graph.Freeze(prog)

	exec, err := Native.Compile(prog, testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ran != "kernel" {
		t.Fatalf("native ran %q, want the fused kernel", ran)
	}
	if rr.Supersteps != 1 {
		t.Fatalf("Supersteps = %d, want 1", rr.Supersteps)
	}

	// The engine must ignore the kernel and run the codelet.
	ran = ""
	eng := graph.NewEngine(testMachine(t))
	if err := eng.Run(prog); err != nil {
		t.Fatal(err)
	}
	if ran != "codelet" {
		t.Fatalf("engine ran %q, want the codelet", ran)
	}
}

// TestNativeMaxIterMatchesEngine requires the native While cap error to be
// indistinguishable from the engine's: same sentinel, same message.
func TestNativeMaxIterMatchesEngine(t *testing.T) {
	build := func() *graph.Sequence {
		prog := &graph.Sequence{}
		body := &graph.Sequence{}
		body.Append(graph.HostCall{Name: "noop", Fn: func() error { return nil }})
		prog.Append(graph.While{Name: "diverge", Cond: func() bool { return true }, Body: body, MaxIter: 7})
		return prog
	}
	eng := graph.NewEngine(testMachine(t))
	simErr := eng.Run(build())
	if !errors.Is(simErr, graph.ErrMaxIter) {
		t.Fatalf("engine error %v", simErr)
	}

	exec, err := Native.Compile(build(), testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	_, natErr := exec.Run(RunConfig{})
	if !errors.Is(natErr, graph.ErrMaxIter) {
		t.Fatalf("native error %v", natErr)
	}
	if simErr.Error() != natErr.Error() {
		t.Fatalf("error text diverges:\n  sim:    %s\n  native: %s", simErr, natErr)
	}
}

// TestNativeErrorWrapping checks host and move failures surface as StepError
// with the step's name, like the engine reports them.
func TestNativeErrorWrapping(t *testing.T) {
	boom := errors.New("link down")
	prog := &graph.Sequence{}
	prog.Append(graph.Exchange{Name: "halo", Moves: []graph.Move{
		{SrcTile: 0, DstTiles: []int{1}, Bytes: 4, Do: func() error { return boom }},
	}})
	exec, err := Native.Compile(prog, testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := exec.Run(RunConfig{})
	var se *graph.StepError
	if !errors.As(runErr, &se) || se.Step != "halo" || !errors.Is(runErr, boom) {
		t.Fatalf("move error %v (%T)", runErr, runErr)
	}

	prog2 := &graph.Sequence{}
	prog2.Append(graph.HostCall{Name: "cb", Fn: func() error { return boom }})
	exec2, err := Native.Compile(prog2, testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr2 := exec2.Run(RunConfig{})
	if !errors.As(runErr2, &se) || se.Step != "cb" || !errors.Is(runErr2, boom) {
		t.Fatalf("host error %v (%T)", runErr2, runErr2)
	}
}

// recordingInjector logs every consultation the executing backend makes, so
// tests can require the native fault stream to visit exactly the same points
// in exactly the same order as the engine.
type recordingInjector struct {
	log []string
}

func (ri *recordingInjector) ComputeFault(name string, ss uint64, numTiles int) (int, uint64) {
	ri.log = append(ri.log, fmt.Sprintf("compute:%s@%d/%d", name, ss, numTiles))
	return -1, 0
}

func (ri *recordingInjector) MoveFault(name string, ss uint64, move int, targets []graph.MoveTarget) (graph.MoveAction, error) {
	ri.log = append(ri.log, fmt.Sprintf("move:%s@%d#%d/%d", name, ss, move, len(targets)))
	return graph.MoveDeliver, nil
}

func (ri *recordingInjector) CorruptPayload(name string, ss uint64, _ []graph.MoveTarget) {
	ri.log = append(ri.log, fmt.Sprintf("corrupt:%s@%d", name, ss))
}

func (ri *recordingInjector) HostFault(name string, ss uint64) error {
	ri.log = append(ri.log, fmt.Sprintf("host:%s@%d", name, ss))
	return nil
}

// TestNativeRejectsSimOnlyFeatures: device tracing gets a typed
// UnsupportedError rejection, not a silent no-op. Fault injection — sim-only
// before the native fault stream existed — must now be accepted.
func TestNativeRejectsSimOnlyFeatures(t *testing.T) {
	prog := &graph.Sequence{}
	prog.Append(graph.HostCall{Name: "noop", Fn: func() error { return nil }})
	exec, err := Native.Compile(prog, testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = exec.Run(RunConfig{Injector: &recordingInjector{}}); err != nil {
		t.Fatalf("injector must be accepted on native: %v", err)
	}
	_, err = exec.Run(RunConfig{Trace: true})
	if !IsUnsupported(err) {
		t.Fatalf("trace: %v", err)
	}
	var ue *UnsupportedError
	if !errors.As(err, &ue) || ue.Backend != "native" {
		t.Fatalf("unsupported error shape: %#v", err)
	}
	if IsUnsupported(errors.New("other")) {
		t.Fatal("IsUnsupported matched an unrelated error")
	}
}

// TestNativeInjectorConsultationOrder runs a program exercising every step
// kind the fast native lowering elides — empty compute sets, accounting-only
// moves, whole exchanges without data movement, nil host callbacks — under a
// recording injector on both backends, and requires bit-identical
// consultation sequences. This is the replay-identity contract: with the same
// consultation order, a seeded fault campaign draws the same decision stream
// on either backend.
func TestNativeInjectorConsultationOrder(t *testing.T) {
	build := func(iters *int) *graph.Sequence {
		prog := &graph.Sequence{}
		prog.Append(countingStep("pre", "pre", &[]string{}))

		empty := graph.NewComputeSet("empty", "Test") // skipped by both paths
		prog.Append(graph.Compute{Set: empty})

		// Exchange of only accounting moves: the fast stream elides it, the
		// engine consults MoveFault for each move.
		prog.Append(graph.Exchange{Name: "gather", Moves: []graph.Move{
			{SrcTile: 1, DstTiles: []int{0}, Bytes: 4},
			{SrcTile: 2, DstTiles: []int{0}, Bytes: 4},
		}})

		// Nil host callback: elided fast, consulted under faults.
		prog.Append(graph.HostCall{Name: "nilcb"})

		// A loop so superstep counters advance through control flow.
		body := &graph.Sequence{}
		body.Append(countingStep("iter", "iter", &[]string{}))
		body.Append(graph.Exchange{Name: "halo", Moves: []graph.Move{
			{SrcTile: 0, DstTiles: []int{1}, Bytes: 8, Do: func() error { return nil }},
			{SrcTile: 1, DstTiles: []int{0}, Bytes: 8}, // accounting only
		}})
		body.Append(graph.HostCall{Name: "tick", Fn: func() error {
			*iters++
			return nil
		}})
		prog.Append(graph.While{
			Name:    "loop",
			Cond:    func() bool { return *iters < 3 },
			Body:    body,
			MaxIter: 10,
		})
		prog.Append(graph.Exchange{Name: "empty-xchg"}) // skipped by both
		return prog
	}

	simIters := 0
	simProg := build(&simIters)
	graph.Freeze(simProg)
	eng := graph.NewEngine(testMachine(t))
	simInj := &recordingInjector{}
	eng.Injector = simInj
	if err := eng.Run(simProg); err != nil {
		t.Fatalf("engine: %v", err)
	}

	natIters := 0
	natProg := build(&natIters)
	graph.Freeze(natProg)
	exec, err := Native.Compile(natProg, testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	natInj := &recordingInjector{}
	if _, err := exec.Run(RunConfig{Injector: natInj}); err != nil {
		t.Fatalf("native: %v", err)
	}

	if len(simInj.log) == 0 {
		t.Fatal("engine consulted the injector zero times")
	}
	if fmt.Sprint(simInj.log) != fmt.Sprint(natInj.log) {
		t.Fatalf("consultation order diverges:\n  sim:    %v\n  native: %v", simInj.log, natInj.log)
	}

	// A fault-free run after an injected one must still use the fast stream
	// (no consultations, same results).
	natIters = 0
	if _, err := exec.Run(RunConfig{}); err != nil {
		t.Fatalf("native fault-free after injected: %v", err)
	}
	// And a second injected run replays the same sequence.
	natIters = 0
	natInj2 := &recordingInjector{}
	if _, err := exec.Run(RunConfig{Injector: natInj2}); err != nil {
		t.Fatalf("native warm injected: %v", err)
	}
	if fmt.Sprint(natInj2.log) != fmt.Sprint(natInj.log) {
		t.Fatalf("warm injected run diverges:\n  cold: %v\n  warm: %v", natInj.log, natInj2.log)
	}
}

// TestNativeMoveActions covers the native handling of every MoveAction:
// corrupt delivers then corrupts, drop delivers once and counts a retry, fail
// surfaces a StepError carrying the injector's error.
func TestNativeMoveActions(t *testing.T) {
	boom := errors.New("dropped beyond budget")
	type scripted struct {
		recordingInjector
		acts []graph.MoveAction
		i    int
	}
	inj := &scripted{acts: []graph.MoveAction{graph.MoveCorrupt, graph.MoveDrop, graph.MoveDeliver}}
	var delivered int
	prog := &graph.Sequence{}
	prog.Append(graph.Exchange{Name: "x", Moves: []graph.Move{
		{SrcTile: 0, DstTiles: []int{1}, Bytes: 4, Do: func() error { delivered++; return nil }},
		{SrcTile: 1, DstTiles: []int{2}, Bytes: 4, Do: func() error { delivered++; return nil }},
		{SrcTile: 2, DstTiles: []int{0}, Bytes: 4, Do: func() error { delivered++; return nil }},
	}})
	exec, err := Native.Compile(prog, testMachine(t), graph.Report{})
	if err != nil {
		t.Fatal(err)
	}
	moveFault := func(string, uint64, int, []graph.MoveTarget) (graph.MoveAction, error) {
		act := inj.acts[inj.i]
		inj.i++
		if act == graph.MoveFail {
			return act, boom
		}
		return act, nil
	}
	rr, runErr := exec.Run(RunConfig{Injector: &scriptedInjector{inner: inj, moveFault: moveFault}})
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if delivered != 3 {
		t.Fatalf("delivered %d moves, want 3 (drop re-bills, it does not re-run)", delivered)
	}
	if rr.FaultRetries != 1 {
		t.Fatalf("FaultRetries = %d, want 1", rr.FaultRetries)
	}
	if len(inj.log) != 1 || inj.log[0][:7] != "corrupt" {
		t.Fatalf("corrupt consultation log %v", inj.log)
	}

	// MoveFail: Do must not run, the error surfaces as a StepError.
	inj.i = 0
	inj.acts = []graph.MoveAction{graph.MoveFail}
	delivered = 0
	_, runErr = exec.Run(RunConfig{Injector: &scriptedInjector{inner: inj, moveFault: moveFault}})
	var se *graph.StepError
	if !errors.As(runErr, &se) || se.Step != "x" || !errors.Is(runErr, boom) {
		t.Fatalf("fail error %v (%T)", runErr, runErr)
	}
	if delivered != 0 {
		t.Fatalf("a failed move must not deliver, got %d deliveries", delivered)
	}
}

// scriptedInjector overrides MoveFault while delegating the rest.
type scriptedInjector struct {
	inner     graph.Injector
	moveFault func(string, uint64, int, []graph.MoveTarget) (graph.MoveAction, error)
}

func (s *scriptedInjector) ComputeFault(n string, ss uint64, nt int) (int, uint64) {
	return s.inner.ComputeFault(n, ss, nt)
}

func (s *scriptedInjector) MoveFault(n string, ss uint64, mv int, tg []graph.MoveTarget) (graph.MoveAction, error) {
	return s.moveFault(n, ss, mv, tg)
}

func (s *scriptedInjector) CorruptPayload(n string, ss uint64, tg []graph.MoveTarget) {
	s.inner.CorruptPayload(n, ss, tg)
}

func (s *scriptedInjector) HostFault(n string, ss uint64) error { return s.inner.HostFault(n, ss) }

// TestSimExecRoundTrip: the sim backend wraps the engine and reports profile
// and superstep counts when asked.
func TestSimExecRoundTrip(t *testing.T) {
	var trace []string
	prog := &graph.Sequence{}
	prog.Append(countingStep("a", "a", &trace))
	prog.Append(countingStep("b", "b", &trace))
	graph.Freeze(prog)

	exec, err := Sim.Compile(prog, testMachine(t), graph.Report{MaxExchangeMoves: 4})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(RunConfig{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Supersteps != 2 {
		t.Fatalf("Supersteps = %d, want 2", rr.Supersteps)
	}
	if len(rr.Profile) == 0 {
		t.Fatal("CollectProfile returned no entries")
	}
	if fmt.Sprint(trace) != "[a b]" {
		t.Fatalf("trace %v", trace)
	}
	// Warm run without profile collection.
	trace = nil
	rr, err = exec.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Profile != nil {
		t.Fatal("profile collected without CollectProfile")
	}
	if fmt.Sprint(trace) != "[a b]" {
		t.Fatalf("warm trace %v", trace)
	}
}
