package graph

import "fmt"

// This file holds the one executor of a program. lower flattens the step tree
// into a flat instruction stream once; exec walks it with a program counter.
// Both backends run this loop. A native run (no engine) executes each compute
// set's NativeKernel, or its codelets when it has none, and moves exchange
// data with no accounting. A simulated run hands each compute superstep and
// exchange phase to the engine, which executes and bills it, and records host
// calls (see Engine). The injector consultations, the move actions, StepError
// wrapping and the While cap exist only here, so a seeded fault campaign draws
// the same decision stream on either backend and replays identically.

type opcode uint8

const (
	opCompute opcode = iota // one compute set, or a fused run of them
	opMoves                 // exchange data movement
	opHost                  // host callback
	opRepeat                // counted-loop head
	opWhile                 // condition-loop head
	opBranch                // if-head: fall through on true, jump on false
	opJump                  // unconditional jump
)

// instr is one lowered instruction. Exactly the fields its opcode needs are
// set; the rest stay zero. opMoves holds the exchange's full move list (moves
// without a Do closure only account traffic) and opHost may carry a nil host
// fn: both are injector consultation points and billed by the engine.
type instr struct {
	op     opcode
	name   string        // step name for error context
	label  string        // opMoves: the exchange's profiling label
	set    *ComputeSet   // opCompute of one set: what the engine executes
	fn     func()        // opCompute: the native kernel; nil runs verts
	kern   *NativeKernel // opCompute of one set: what fuse reads
	sets   uint64        // compute sets the instruction executes
	verts  []Codelet
	moves  []Move
	host   func() error
	cond   func() bool
	target int // jump destination
	loop   int // counter slot (opRepeat/opWhile)
	n      int // repeat count / while iteration cap
}

// Stream is a program lowered to a flat instruction stream. Run is not safe
// for concurrent use.
type Stream struct {
	ins      []instr // the lowered stream: simulated and fault-armed runs, and fuse's input
	fused    []instr // the stream of fault-free native runs (set by Lower)
	fusion   FusionReport
	counters []int
	numTiles int
	seqs     []seqMark // every sequence lowered, to tell when the program grew
}

// seqMark records a lowered sequence and its steps at lowering.
type seqMark struct {
	seq   *Sequence
	steps []Step
}

// RunStats counts what one run of a stream executed.
type RunStats struct {
	Supersteps   uint64
	FaultRetries uint64
	// CodeletSets counts the compute sets a native run executed codelet by
	// codelet because they carry no native kernel (0 on the simulator, where
	// codelets are the execution model). A count that grows with the
	// iteration count means a kernel inside a solver loop fell back.
	CodeletSets uint64
	// FusedSets counts the compute sets a native run executed inside a fused
	// kernel (0 on the simulator and on fault-armed native runs, which execute
	// the unfused stream). A count that stops growing with the iteration
	// count means a solver loop lost its fusions.
	FusedSets uint64
}

// FusionReport says what the fusion pass did to a lowered program.
type FusionReport struct {
	Hoists int            // reduction partials moved behind their operand's producer
	Groups map[string]int // fused kernels by statement signature (see FuseKernels)
}

// Lower flattens prog for native execution on a machine of numTiles tiles.
// Fault-free runs execute a second stream derived from the lowered one by the
// fusion pass (see fuse); fault-armed runs execute the lowered one, because a
// hoisted or merged compute set would draw a different injector decision.
func Lower(prog Step, numTiles int) (*Stream, error) {
	s := &Stream{numTiles: numTiles}
	if err := s.lower(prog); err != nil {
		return nil, err
	}
	s.fused, s.fusion = fuse(s.ins)
	return s, nil
}

// Fusion returns the fusion pass's report for this stream.
func (s *Stream) Fusion() FusionReport { return s.fusion }

// Run executes the stream natively: no cycle model and no exchange
// accounting, zero allocation per run. Tile stalls consume their decision
// draws but have no cycle model to bill; dropped payloads re-run nothing and
// count as fault retries.
func (s *Stream) Run(inj Injector) (RunStats, error) { return s.exec(nil, inj) }

// current reports whether no sequence of the program changed since it was
// lowered.
func (s *Stream) current() bool {
	for _, m := range s.seqs {
		if len(m.seq.Steps) != len(m.steps) || (len(m.steps) > 0 && &m.seq.Steps[0] != &m.steps[0]) {
			return false
		}
	}
	return true
}

// lower appends the step to s.ins. Empty compute sets and zero-move
// exchanges are neither executed nor consulted; accounting-only moves and
// nil host callbacks stay in the stream as consultation points.
func (s *Stream) lower(st Step) error {
	switch st := st.(type) {
	case *Sequence:
		s.seqs = append(s.seqs, seqMark{st, st.Steps})
		for _, sub := range st.Steps {
			if err := s.lower(sub); err != nil {
				return err
			}
		}
	case Compute:
		if st.Set.Empty() {
			return nil
		}
		in := instr{op: opCompute, name: st.Set.Name, set: st.Set, sets: 1}
		if k := st.Set.NativeKernel; k != nil {
			in.fn, in.kern = k.Run, k
		} else {
			in.verts = st.Set.Vertices()
		}
		s.ins = append(s.ins, in)
	case Exchange:
		if len(st.Moves) == 0 {
			return nil
		}
		label := st.Label
		if label == "" {
			label = "Exchange"
		}
		s.ins = append(s.ins, instr{op: opMoves, name: st.Name, label: label, moves: st.Moves})
	case HostCall:
		s.ins = append(s.ins, instr{op: opHost, name: st.Name, host: st.Fn})
	case Repeat:
		if st.N <= 0 {
			return nil
		}
		return s.loop(instr{op: opRepeat, n: st.N}, st.Body)
	case While:
		max := st.MaxIter
		if max <= 0 {
			max = 1 << 30
		}
		return s.loop(instr{op: opWhile, name: st.Name, cond: st.Cond, n: max}, st.Body)
	case If:
		head := len(s.ins)
		s.ins = append(s.ins, instr{op: opBranch, cond: st.Cond})
		if st.Then != nil {
			if err := s.lower(st.Then); err != nil {
				return err
			}
		}
		if st.Else == nil {
			s.ins[head].target = len(s.ins)
			return nil
		}
		skip := len(s.ins)
		s.ins = append(s.ins, instr{op: opJump})
		s.ins[head].target = len(s.ins)
		if err := s.lower(st.Else); err != nil {
			return err
		}
		s.ins[skip].target = len(s.ins)
	default:
		return fmt.Errorf("graph: lowering: unknown step type %T", st)
	}
	return nil
}

// loop lowers a loop head, its body and the jump back to the head.
func (s *Stream) loop(head instr, body *Sequence) error {
	head.loop = len(s.counters)
	s.counters = append(s.counters, 0)
	at := len(s.ins)
	s.ins = append(s.ins, head)
	if err := s.lower(body); err != nil {
		return err
	}
	s.ins = append(s.ins, instr{op: opJump, target: at})
	s.ins[at].target = len(s.ins)
	return nil
}

// exec runs the stream: natively when e is nil, else with e executing and
// billing every compute superstep and exchange phase. The injector is
// consulted in program order: ComputeFault once before each compute
// superstep (the superstep counter increments after it), MoveFault once per
// move of each exchange with CorruptPayload after a corrupted delivery,
// HostFault before each host callback.
func (s *Stream) exec(e *Engine, inj Injector) (RunStats, error) {
	ins := s.fused
	if e != nil || inj != nil {
		ins = s.ins
	}
	var st RunStats
	ss, retries := &st.Supersteps, &st.FaultRetries
	if e != nil {
		ss, retries = &e.Supersteps, &e.FaultRetries
	}
	clear(s.counters)
	var err error
	pc := 0
run:
	for pc < len(ins) {
		in := &ins[pc]
		switch in.op {
		case opCompute:
			stallTile, stall := -1, uint64(0)
			if inj != nil {
				stallTile, stall = inj.ComputeFault(in.name, *ss, s.numTiles)
			}
			switch {
			case e != nil:
				if err = e.compute(in.set, inj != nil, stallTile, stall); err != nil {
					break run
				}
			case in.fn != nil:
				in.fn()
				if in.sets > 1 {
					st.FusedSets += in.sets
				}
			default:
				for _, c := range in.verts {
					c.Run()
				}
				st.CodeletSets++
			}
			*ss += in.sets
			pc++
		case opMoves:
			for i := range in.moves {
				mv := &in.moves[i]
				act := MoveDeliver
				if inj != nil {
					var ferr error
					if act, ferr = inj.MoveFault(in.name, *ss, i, mv.Targets); act == MoveFail {
						err = &StepError{Step: in.name, Superstep: *ss, Err: ferr}
						break run
					}
				}
				if mv.Do != nil {
					if derr := mv.Do(); derr != nil {
						err = &StepError{Step: in.name, Superstep: *ss, Err: derr}
						break run
					}
				}
				switch act {
				case MoveCorrupt:
					inj.CorruptPayload(in.name, *ss, mv.Targets)
				case MoveDrop:
					*retries++
				}
				if e != nil && inj != nil {
					e.transfer(mv, act == MoveDrop)
				}
			}
			if e != nil {
				e.exchange(in.name, in.label, in.moves, inj != nil)
			}
			pc++
		case opHost:
			if inj != nil {
				if herr := inj.HostFault(in.name, *ss); herr != nil {
					err = &StepError{Step: in.name, Superstep: *ss, Err: herr}
					break run
				}
			}
			if e != nil {
				e.hostCall(in.name)
			}
			if in.host != nil {
				if herr := in.host(); herr != nil {
					err = &StepError{Step: in.name, Superstep: *ss, Err: herr}
					break run
				}
			}
			pc++
		case opRepeat:
			if s.counters[in.loop] >= in.n {
				s.counters[in.loop] = 0
				pc = in.target
			} else {
				s.counters[in.loop]++
				pc++
			}
		case opWhile:
			// Cap first: the error fires after n body executions even if
			// the condition would now be false.
			if s.counters[in.loop] >= in.n {
				s.counters[in.loop] = 0
				err = fmt.Errorf("%w (%q, %d iterations)", ErrMaxIter, in.name, in.n)
				break run
			}
			if !in.cond() {
				s.counters[in.loop] = 0
				pc = in.target
			} else {
				s.counters[in.loop]++
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
	return st, err
}
