package graph

import (
	"errors"
	"fmt"
	"sort"
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
	// cycle accounting. A native run executes it instead of the
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
	// simulated execution (see Engine.resolve), never by a native run.
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

// Step is one node of the execution schedule. Only this package's step types
// implement it: lowering (see stream.go) knows each of them.
type Step interface {
	step()
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

// Compute executes one compute set as a BSP superstep.
type Compute struct {
	Set *ComputeSet
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

// Repeat executes Body N times.
type Repeat struct {
	N    int
	Body *Sequence
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

// If executes Then or Else depending on Cond.
type If struct {
	Cond func() bool
	Then *Sequence
	Else *Sequence
}

// HostCall invokes a CPU callback, used for data transfer and user progress
// reporting (paper §III-A step 4). Host time is not billed to the device.
type HostCall struct {
	Name string
	Fn   func() error
}

func (*Sequence) step() {}
func (Compute) step()   {}
func (Exchange) step()  {}
func (Repeat) step()    {}
func (While) step()     {}
func (If) step()        {}
func (HostCall) step()  {}
