package graph

import (
	"errors"
	"fmt"
	"sort"

	"ipusparse/internal/ipu"
)

// Codelet is one computational vertex executing on one worker thread of one
// tile. Run performs the computation functionally and returns the cycle cost
// it consumed (data-dependent control flow makes the cost a result of
// execution, exactly as Poplar's cycle estimators work per invocation).
//
// A vertex whose cost is a build-time constant is a Fixed instead: it has no
// code, so its cost cannot depend on data. A compute set whose vertices are
// all Fixed is billed: the engine runs the set's native kernel for the values
// and bills each tile the max over its Fixed workers, computed once. Every
// other set is interpreted, vertex by vertex.
type Codelet interface {
	Run() uint64
}

// CodeletFunc adapts a closure to the Codelet interface.
type CodeletFunc func() uint64

// Run implements Codelet.
func (f CodeletFunc) Run() uint64 { return f() }

// Fixed is a cost-only vertex: one worker's cycle bill, with no computation.
type Fixed uint64

// Run implements Codelet: the bill, nothing else.
func (f Fixed) Run() uint64 { return uint64(f) }

// ComputeSet groups vertices that execute in parallel within one BSP compute
// superstep. Vertices on the same tile occupy distinct worker-thread slots.
type ComputeSet struct {
	Name  string
	Label string // profiling class, e.g. "SpMV", "Reduce", "Elementwise Ops"

	// NativeKernel, when non-nil, describes a flat host-speed implementation
	// of the whole compute set (see kernel.go): running it produces the same
	// memory effects as running every vertex, without per-tile dispatch or
	// cycle accounting. The native backend executes it instead of the
	// vertices, alone or fused with its neighbours; the cycle-accurate engine
	// executes it for a billed set (all vertices Fixed), whose values it
	// alone computes, and ignores it otherwise.
	NativeKernel *NativeKernel

	vertices map[int][]Codelet // tile -> worker codelets
	frozen   *frozenSet        // dense execution form, built by Finalize
}

// NewComputeSet creates a named compute set with a profiling label.
func NewComputeSet(name, label string) *ComputeSet {
	return &ComputeSet{Name: name, Label: label, vertices: map[int][]Codelet{}}
}

// Add appends codelet c as the next worker-thread vertex on the given tile.
func (cs *ComputeSet) Add(tile int, c Codelet) {
	cs.vertices[tile] = append(cs.vertices[tile], c)
	cs.frozen = nil
}

// Workers returns the number of worker vertices currently placed on a tile.
func (cs *ComputeSet) Workers(tile int) int { return len(cs.vertices[tile]) }

// Empty reports whether the compute set has no vertices.
func (cs *ComputeSet) Empty() bool { return len(cs.vertices) == 0 }

// frozenSet is the dense, execution-ready form of a ComputeSet: the populated
// tiles in ascending order with their worker codelets. Freezing happens once
// at graph-construction time (Freeze, called by the prepare phase) or lazily
// on first execution, so the engine's hot path never iterates the builder map
// — and, because the order is sorted rather than map order, execution is
// deterministic and can be sharded into contiguous tile ranges.
type frozenSet struct {
	tiles []int
	verts [][]Codelet

	// bill is a billed set's per-tile cost, in tiles order; resolved says
	// the engine has classified the set. Both are set on the set's first
	// simulated execution (see Engine.resolve), never by the native backend.
	bill     []uint64
	resolved bool
}

// Finalize returns the frozen form of the set, building it if a vertex was
// added since the last call.
func (cs *ComputeSet) Finalize() {
	if cs.frozen != nil {
		return
	}
	fs := &frozenSet{
		tiles: make([]int, 0, len(cs.vertices)),
		verts: make([][]Codelet, 0, len(cs.vertices)),
	}
	for tile := range cs.vertices {
		fs.tiles = append(fs.tiles, tile)
	}
	sort.Ints(fs.tiles)
	for _, tile := range fs.tiles {
		fs.verts = append(fs.verts, cs.vertices[tile])
	}
	cs.frozen = fs
}

func (cs *ComputeSet) finalized() *frozenSet {
	cs.Finalize()
	return cs.frozen
}

// Vertices returns every codelet of the set flattened in frozen execution
// order (ascending tile, then worker slot). Backends that run codelets
// serially — without the engine's sharding or cost model — iterate this.
func (cs *ComputeSet) Vertices() []Codelet {
	fs := cs.finalized()
	n := 0
	for _, ws := range fs.verts {
		n += len(ws)
	}
	out := make([]Codelet, 0, n)
	for _, ws := range fs.verts {
		out = append(out, ws...)
	}
	return out
}

// costOnly reports whether the set is billed: every vertex Fixed. A set that
// mixes Fixed and computing vertices, and a billed set without the native
// kernel that computes its values, are errors.
func (cs *ComputeSet) costOnly() (bool, error) {
	fixed, n := 0, 0
	for _, ws := range cs.vertices {
		for _, w := range ws {
			if _, ok := w.(Fixed); ok {
				fixed++
			}
			n++
		}
	}
	switch {
	case fixed == 0:
		return false, nil
	case fixed < n:
		return false, fmt.Errorf("graph: compute set %q mixes cost-only and computing vertices", cs.Name)
	case cs.NativeKernel == nil:
		return false, fmt.Errorf("graph: billed compute set %q has no native kernel", cs.Name)
	}
	return true, nil
}

// Freeze finalizes every compute set reachable from s. The prepare phase
// calls it after validation so the first superstep of a fresh pipeline pays
// no finalization cost.
func Freeze(s Step) {
	switch st := s.(type) {
	case *Sequence:
		for _, sub := range st.Steps {
			Freeze(sub)
		}
	case Compute:
		st.Set.Finalize()
	case Repeat:
		Freeze(st.Body)
	case While:
		Freeze(st.Body)
	case If:
		if st.Then != nil {
			Freeze(st.Then)
		}
		if st.Else != nil {
			Freeze(st.Else)
		}
	}
}

// Step is one node of the execution schedule.
type Step interface {
	exec(e *Engine) error
}

// Sequence executes its steps in order. It is the body type of all control
// flow and the root of every program.
type Sequence struct {
	Name  string
	Steps []Step
}

// Append adds a step to the sequence.
func (s *Sequence) Append(st Step) { s.Steps = append(s.Steps, st) }

// Len returns the number of steps.
func (s *Sequence) Len() int { return len(s.Steps) }

func (s *Sequence) exec(e *Engine) error {
	for _, st := range s.Steps {
		if err := st.exec(e); err != nil {
			return err
		}
	}
	return nil
}

// Compute executes one compute set as a BSP superstep.
type Compute struct {
	Set *ComputeSet
}

func (c Compute) exec(e *Engine) error {
	if c.Set.Empty() {
		return nil
	}
	fs := c.Set.finalized()
	if !fs.resolved {
		if err := e.resolve(c.Set, fs); err != nil {
			return err
		}
	}
	if fs.bill != nil {
		return e.billedSuperstep(c.Set, fs)
	}
	if e.Injector != nil {
		// Fault campaigns run on the coordinator with serial shards: injector
		// decisions (stalls, bit flips) stay in deterministic program order,
		// so a seeded campaign replays exactly at any parallelism setting.
		return c.execInjected(e, fs)
	}
	return e.computeSuperstep(c.Set, fs)
}

// execInjected is the coordinator-serial compute path used under a fault
// campaign. The fault model is consulted before the codelets run, so injected
// bit flips corrupt the memory this superstep computes on.
func (c Compute) execInjected(e *Engine, fs *frozenSet) error {
	for i := range e.tileCost {
		e.tileCost[i] = 0
	}
	stallTile, stall := e.Injector.ComputeFault(c.Set.Name, e.Supersteps, len(e.tileCost))
	for i, tile := range fs.tiles {
		if tile < 0 || tile >= len(e.tileCost) {
			return &StepError{Step: c.Set.Name, Superstep: e.Supersteps,
				Err: fmt.Errorf("graph: compute set places vertex on invalid tile %d", tile)}
		}
		e.workerCost = e.workerCost[:0]
		for _, w := range fs.verts[i] {
			e.workerCost = append(e.workerCost, w.Run())
		}
		cost, err := e.M.WorkerMax(e.workerCost)
		if err != nil {
			return &StepError{Step: c.Set.Name, Superstep: e.Supersteps,
				Err: fmt.Errorf("tile %d: %w", tile, err)}
		}
		e.tileCost[tile] = cost
	}
	if stall > 0 && stallTile >= 0 && stallTile < len(e.tileCost) {
		e.tileCost[stallTile] += stall
	}
	e.superstepDone(c.Set, e.M.Compute(e.tileCost), 1)
	return nil
}

// Move is one blockwise transfer of an Exchange step: Bytes sent from
// SrcTile and broadcast to DstTiles; Do (optional) performs the data
// movement and reports delivery failures. Targets (optional) locate the
// delivered payload in destination tile memory for the fault model.
type Move struct {
	SrcTile  int
	DstTiles []int
	Bytes    int
	Do       func() error
	Targets  []MoveTarget
}

// Exchange executes one BSP exchange phase consisting of blockwise moves
// (the compiler-generated communication program).
type Exchange struct {
	Name  string
	Label string
	Moves []Move
}

func (x Exchange) exec(e *Engine) error {
	if len(x.Moves) == 0 {
		return nil
	}
	var st ipu.ExchangeStats
	var err error
	if e.Injector == nil {
		st, err = x.replay(e)
	} else {
		st, err = x.execInjected(e)
	}
	if err != nil {
		return err
	}
	label := x.Label
	if label == "" {
		label = "Exchange"
	}
	e.addProfile(label, st.Cycles)
	if e.tracer != nil {
		e.tracer.add(x.Name, label, "exchange", st.Cycles)
	}
	if e.metrics != nil {
		e.metrics.Exchanges.Inc()
		e.metrics.ExchangeCycles.Observe(float64(st.Cycles))
		e.metrics.ExchangeBytes.Observe(float64(st.Bytes))
	}
	return nil
}

// replay moves a fault-free exchange's data and bills its cost, which the
// engine computes on the phase's first execution and replays after.
func (x Exchange) replay(e *Engine) (ipu.ExchangeStats, error) {
	for i := range x.Moves {
		if do := x.Moves[i].Do; do != nil {
			if err := do(); err != nil {
				return ipu.ExchangeStats{}, &StepError{Step: x.Name, Superstep: e.Supersteps, Err: err}
			}
		}
	}
	return e.M.BillExchange(e.exchangeCost(x.Moves)), nil
}

// execInjected moves and bills an exchange under a fault campaign: the
// injector decides each move's fate, and the phase bills its actual transfer
// list, dropped payloads billed twice.
func (x Exchange) execInjected(e *Engine) (ipu.ExchangeStats, error) {
	transfers := e.transferScratch[:0]
	for i := range x.Moves {
		mv := &x.Moves[i]
		act := MoveDeliver
		var ferr error
		if e.Injector != nil {
			act, ferr = e.Injector.MoveFault(x.Name, e.Supersteps, i, mv.Targets)
		}
		if act == MoveFail {
			e.transferScratch = transfers[:0]
			return ipu.ExchangeStats{}, &StepError{Step: x.Name, Superstep: e.Supersteps, Err: ferr}
		}
		if mv.Do != nil {
			if err := mv.Do(); err != nil {
				e.transferScratch = transfers[:0]
				return ipu.ExchangeStats{}, &StepError{Step: x.Name, Superstep: e.Supersteps, Err: err}
			}
		}
		switch act {
		case MoveCorrupt:
			e.Injector.CorruptPayload(x.Name, e.Supersteps, mv.Targets)
		case MoveDrop:
			// Parity-detected loss: the fabric redelivers the block, so its
			// traffic is billed a second time on the same phase.
			transfers = append(transfers, transferFromMove(*mv))
			e.FaultRetries++
			if e.metrics != nil {
				e.metrics.FaultRetries.Inc()
			}
		}
		transfers = append(transfers, transferFromMove(*mv))
	}
	st := e.M.Exchange(transfers)
	e.transferScratch = transfers[:0]
	return st, nil
}

// Repeat executes Body N times.
type Repeat struct {
	N    int
	Body *Sequence
}

func (r Repeat) exec(e *Engine) error {
	for i := 0; i < r.N; i++ {
		if err := r.Body.exec(e); err != nil {
			return err
		}
	}
	return nil
}

// While executes Body while Cond() is true. Cond typically reads a scalar
// tensor that the body updates on the device. MaxIter (0 = default cap)
// guards against non-terminating programs.
type While struct {
	Name    string
	Cond    func() bool
	Body    *Sequence
	MaxIter int
}

// ErrMaxIter is returned when a While exceeds its iteration cap.
var ErrMaxIter = errors.New("graph: while loop exceeded MaxIter")

func (w While) exec(e *Engine) error {
	max := w.MaxIter
	if max <= 0 {
		max = 1 << 30
	}
	for i := 0; i < max; i++ {
		if !w.Cond() {
			return nil
		}
		if err := w.Body.exec(e); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w (%q, %d iterations)", ErrMaxIter, w.Name, max)
}

// If executes Then or Else depending on Cond.
type If struct {
	Cond func() bool
	Then *Sequence
	Else *Sequence
}

func (f If) exec(e *Engine) error {
	if f.Cond() {
		if f.Then != nil {
			return f.Then.exec(e)
		}
		return nil
	}
	if f.Else != nil {
		return f.Else.exec(e)
	}
	return nil
}

// HostCall invokes a CPU callback, used for data transfer and user progress
// reporting (paper §III-A step 4). Host time is not billed to the device.
type HostCall struct {
	Name string
	Fn   func() error
}

func (h HostCall) exec(e *Engine) error {
	if e.Injector != nil {
		if err := e.Injector.HostFault(h.Name, e.Supersteps); err != nil {
			return &StepError{Step: h.Name, Superstep: e.Supersteps, Err: err}
		}
	}
	if e.metrics != nil {
		e.metrics.HostCalls.Inc()
	}
	if e.tracer != nil {
		// Host callbacks are zero-cycle on the device timeline; they show up
		// as instants on the host-call track of the exported trace.
		e.tracer.add(h.Name, "Host", "host", 0)
	}
	if h.Fn == nil {
		return nil
	}
	if err := h.Fn(); err != nil {
		return &StepError{Step: h.Name, Superstep: e.Supersteps, Err: err}
	}
	return nil
}
