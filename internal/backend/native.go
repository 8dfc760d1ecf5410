package backend

import (
	"fmt"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// nativeBackend lowers a frozen program into a flat instruction stream
// executed by a tight program-counter loop: no cycle model, no exchange
// accounting, no per-superstep sharding, zero allocation per run. Compute
// sets execute their NativeKernel when they carry one and fall back to
// running their codelets serially (discarding the returned cycle counts);
// exchange phases run the Do closure of every move that has one; control flow
// becomes counter-guarded jumps.
//
// The lowered stream keeps every injector consultation point the
// cycle-accurate engine has: every move of every non-empty exchange
// (accounting-only moves included), every host call (nil callbacks included)
// and one compute consultation per non-empty compute set, in program order. A
// fault campaign therefore draws the same decision stream from the same seed
// on either backend and replays identically.
//
// Fault-free runs execute a second stream derived from the first by one
// peephole pass (see fuse): reduction partials hoisted behind the kernel that
// produces their operand, adjacent kernels fused into one sweep, pure
// consultation points dropped. Every fusion is bit-identical to the plain
// stream, which stays the stream of fault-armed runs: a hoisted or merged
// compute set would draw a different injector decision.
type nativeBackend struct{}

func (nativeBackend) Name() string         { return "native" }
func (nativeBackend) SupportsFaults() bool { return true }
func (nativeBackend) SupportsTrace() bool  { return false }

func (nativeBackend) Compile(prog *graph.Sequence, m *ipu.Machine, rep graph.Report) (Executable, error) {
	x := &nativeExec{numTiles: m.NumTiles()}
	if err := x.lower(prog); err != nil {
		return nil, err
	}
	x.counters = make([]int, x.nloops)
	x.fused, x.fusion = fuse(x.ins)
	return x, nil
}

type opcode uint8

const (
	opKernel   opcode = iota // native kernel: one compute set, or a fused run of them
	opCodelets               // serial codelet fallback
	opMoves                  // exchange data movement
	opHost                   // host callback
	opRepeat                 // counted-loop head
	opWhile                  // condition-loop head
	opBranch                 // if-head: fall through on true, jump on false
	opJump                   // unconditional jump
)

// instr is one lowered instruction. Exactly the fields its opcode needs are
// set; the rest stay zero. opMoves holds the exchange's full move list (moves
// without a Do closure only account traffic and are stepped over) and opHost
// may carry a nil host fn, so the injector is consulted exactly where the
// engine would.
type instr struct {
	op     opcode
	name   string // step name for error context
	fn     func()
	kern   *graph.NativeKernel // opKernel of one compute set: what fuse reads
	sets   uint64              // opKernel: compute sets fn executes
	verts  []graph.Codelet
	moves  []graph.Move
	host   func() error
	cond   func() bool
	target int // jump destination
	loop   int // counter slot (opRepeat/opWhile)
	n      int // repeat count / while iteration cap
}

type nativeExec struct {
	ins      []instr // the lowered stream: fault-armed runs, and fuse's input
	fused    []instr // the stream of fault-free runs
	fusion   FusionReport
	counters []int
	nloops   int
	numTiles int
}

// FusionReport says what the fusion pass did to a compiled program.
type FusionReport struct {
	Hoists int            // reduction partials moved behind their operand's producer
	Groups map[string]int // fused kernels by statement signature (see graph.FuseKernels)
}

// Fusion returns the fusion pass's report for this executable.
func (x *nativeExec) Fusion() FusionReport { return x.fusion }

// Refresh implements Executable. Lowering captures the solver's tile value
// blocks and tensor buffers by slice header inside the fused kernels and
// codelet closures, never copying the numbers, so an in-place rewrite of
// those arrays is already visible to the stream on its next Run — no
// re-lowering, no allocation.
func (x *nativeExec) Refresh(rewrite func() error) error {
	return rewrite()
}

// lower flattens the step tree into x.ins. The skip rules match the engine's
// early returns exactly: empty compute sets and zero-move exchanges are
// consulted by neither, while accounting-only moves and nil host callbacks
// stay in the stream as consultation points.
func (x *nativeExec) lower(s graph.Step) error {
	switch st := s.(type) {
	case *graph.Sequence:
		for _, sub := range st.Steps {
			if err := x.lower(sub); err != nil {
				return err
			}
		}
	case graph.Compute:
		if st.Set.Empty() {
			return nil
		}
		if k := st.Set.NativeKernel; k != nil {
			x.ins = append(x.ins, instr{op: opKernel, name: st.Set.Name, fn: k.Run, kern: k, sets: 1})
			return nil
		}
		x.ins = append(x.ins, instr{op: opCodelets, name: st.Set.Name, verts: st.Set.Vertices()})
	case graph.Exchange:
		if len(st.Moves) == 0 {
			return nil
		}
		x.ins = append(x.ins, instr{op: opMoves, name: st.Name, moves: st.Moves})
	case graph.HostCall:
		x.ins = append(x.ins, instr{op: opHost, name: st.Name, host: st.Fn})
	case graph.Repeat:
		if st.N <= 0 {
			return nil
		}
		loop := x.nloops
		x.nloops++
		head := len(x.ins)
		x.ins = append(x.ins, instr{op: opRepeat, loop: loop, n: st.N})
		if err := x.lower(st.Body); err != nil {
			return err
		}
		x.ins = append(x.ins, instr{op: opJump, target: head})
		x.ins[head].target = len(x.ins)
	case graph.While:
		max := st.MaxIter
		if max <= 0 {
			max = 1 << 30 // the engine's default cap
		}
		loop := x.nloops
		x.nloops++
		head := len(x.ins)
		x.ins = append(x.ins, instr{op: opWhile, name: st.Name, cond: st.Cond, loop: loop, n: max})
		if err := x.lower(st.Body); err != nil {
			return err
		}
		x.ins = append(x.ins, instr{op: opJump, target: head})
		x.ins[head].target = len(x.ins)
	case graph.If:
		head := len(x.ins)
		x.ins = append(x.ins, instr{op: opBranch, cond: st.Cond})
		if st.Then != nil {
			if err := x.lower(st.Then); err != nil {
				return err
			}
		}
		if st.Else == nil {
			x.ins[head].target = len(x.ins)
			return nil
		}
		skip := len(x.ins)
		x.ins = append(x.ins, instr{op: opJump})
		x.ins[head].target = len(x.ins)
		if err := x.lower(st.Else); err != nil {
			return err
		}
		x.ins[skip].target = len(x.ins)
	default:
		return fmt.Errorf("backend: native lowering: unknown step type %T", s)
	}
	return nil
}

// Run executes the fused stream, or with an injector the lowered one. The
// injector is consulted exactly where and in the order the cycle-accurate
// engine does: ComputeFault once before each non-empty compute superstep (the
// superstep counter increments after it, like the engine's), MoveFault once
// per move of each non-empty exchange with CorruptPayload after a corrupted
// delivery, HostFault before each host callback. Tile stalls consume their
// decision draws but have no cycle model to bill; dropped payloads re-run
// nothing (the engine only re-bills their traffic) and count as fault retries.
func (x *nativeExec) Run(cfg RunConfig) (RunResult, error) {
	if cfg.Trace {
		return RunResult{}, &UnsupportedError{Backend: "native", Feature: "device tracing"}
	}
	inj := cfg.Injector
	for i := range x.counters {
		x.counters[i] = 0
	}
	ins := x.fused
	if inj != nil {
		ins = x.ins
	}
	var supersteps, retries, codeletSets, fusedSets uint64
	var err error
	pc := 0
run:
	for pc < len(ins) {
		in := &ins[pc]
		switch in.op {
		case opKernel:
			if inj != nil {
				inj.ComputeFault(in.name, supersteps, x.numTiles)
			}
			in.fn()
			supersteps += in.sets
			if in.sets > 1 {
				fusedSets += in.sets
			}
			pc++
		case opCodelets:
			if inj != nil {
				inj.ComputeFault(in.name, supersteps, x.numTiles)
			}
			for _, c := range in.verts {
				c.Run()
			}
			codeletSets++
			supersteps++
			pc++
		case opMoves:
			for i := range in.moves {
				mv := &in.moves[i]
				act := graph.MoveDeliver
				if inj != nil {
					var ferr error
					if act, ferr = inj.MoveFault(in.name, supersteps, i, mv.Targets); act == graph.MoveFail {
						err = &graph.StepError{Step: in.name, Superstep: supersteps, Err: ferr}
						break run
					}
				}
				if mv.Do != nil {
					if derr := mv.Do(); derr != nil {
						err = &graph.StepError{Step: in.name, Superstep: supersteps, Err: derr}
						break run
					}
				}
				switch act {
				case graph.MoveCorrupt:
					inj.CorruptPayload(in.name, supersteps, mv.Targets)
				case graph.MoveDrop:
					retries++
				}
			}
			pc++
		case opHost:
			if inj != nil {
				if herr := inj.HostFault(in.name, supersteps); herr != nil {
					err = &graph.StepError{Step: in.name, Superstep: supersteps, Err: herr}
					break run
				}
			}
			if in.host != nil {
				if herr := in.host(); herr != nil {
					err = &graph.StepError{Step: in.name, Superstep: supersteps, Err: herr}
					break run
				}
			}
			pc++
		case opRepeat:
			if x.counters[in.loop] >= in.n {
				x.counters[in.loop] = 0
				pc = in.target
			} else {
				x.counters[in.loop]++
				pc++
			}
		case opWhile:
			// Cap first, like the engine: the error fires after n body
			// executions even if the condition would now be false.
			if x.counters[in.loop] >= in.n {
				x.counters[in.loop] = 0
				err = fmt.Errorf("%w (%q, %d iterations)", graph.ErrMaxIter, in.name, in.n)
				break run
			}
			if !in.cond() {
				x.counters[in.loop] = 0
				pc = in.target
			} else {
				x.counters[in.loop]++
				pc++
			}
		case opBranch:
			if in.cond() {
				pc++
			} else {
				pc = in.target
			}
		case opJump:
			pc = in.target
		}
	}
	return RunResult{
		Supersteps: supersteps, FaultRetries: retries,
		CodeletSets: codeletSets, FusedSets: fusedSets,
	}, err
}
