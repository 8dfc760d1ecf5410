package graph

import (
	"fmt"
	"sort"
	"strings"

	"ipusparse/internal/ipu"
)

// Report summarizes a constructed program — the analog of Poplar's graph
// compilation report. The paper emphasizes keeping the dataflow graph and
// schedule small (late materialization, single compute set per level-set
// solver); the report makes those quantities observable and testable.
type Report struct {
	Steps        int // total schedule nodes
	ComputeSets  int
	Vertices     int // codelets across all compute sets
	MaxWorkers   int // max worker vertices on one tile in one compute set
	Exchanges    int
	Moves        int // communication-program instructions
	HostCalls    int
	Loops        int // Repeat + While nodes
	Conditionals int
	MaxDepth     int // control-flow nesting depth
	// MaxExchangeMoves is the largest single exchange phase's move count —
	// what Engine.Reserve pre-sizes its transfer scratch to.
	MaxExchangeMoves int
	Labels           map[string]int
}

// Analyze walks a program and gathers its report.
func Analyze(s Step) Report {
	r := Report{Labels: map[string]int{}}
	walk(s, 1, &r)
	return r
}

func walk(s Step, depth int, r *Report) {
	if depth > r.MaxDepth {
		r.MaxDepth = depth
	}
	r.Steps++
	switch st := s.(type) {
	case *Sequence:
		r.Steps-- // sequences are containers, not schedule nodes
		for _, sub := range st.Steps {
			walk(sub, depth, r)
		}
	case Compute:
		r.ComputeSets++
		r.Labels[st.Set.Label]++
		for _, workers := range st.Set.vertices {
			r.Vertices += len(workers)
			if len(workers) > r.MaxWorkers {
				r.MaxWorkers = len(workers)
			}
		}
	case Exchange:
		r.Exchanges++
		r.Moves += len(st.Moves)
		if len(st.Moves) > r.MaxExchangeMoves {
			r.MaxExchangeMoves = len(st.Moves)
		}
	case HostCall:
		r.HostCalls++
	case Repeat:
		r.Loops++
		walk(st.Body, depth+1, r)
	case While:
		r.Loops++
		walk(st.Body, depth+1, r)
	case If:
		r.Conditionals++
		if st.Then != nil {
			walk(st.Then, depth+1, r)
		}
		if st.Else != nil {
			walk(st.Else, depth+1, r)
		}
	}
}

// Validate checks the program against a machine configuration: no compute
// set may place more worker vertices on a tile than the tile has worker
// slots, a set is either billed (all vertices Fixed, with a native kernel) or
// has no Fixed vertex, and no move may reference a tile outside the machine.
func Validate(s Step, cfg ipu.Config) error {
	var err error
	var check func(s Step)
	check = func(s Step) {
		if err != nil {
			return
		}
		switch st := s.(type) {
		case *Sequence:
			for _, sub := range st.Steps {
				check(sub)
			}
		case Compute:
			if _, err = st.Set.costOnly(); err != nil {
				return
			}
			for tile, workers := range st.Set.vertices {
				if tile < 0 || tile >= cfg.NumTiles() {
					err = fmt.Errorf("graph: compute set %q on invalid tile %d", st.Set.Name, tile)
					return
				}
				if len(workers) > cfg.WorkersPerTile {
					err = fmt.Errorf("graph: compute set %q oversubscribes tile %d (%d > %d workers)",
						st.Set.Name, tile, len(workers), cfg.WorkersPerTile)
					return
				}
			}
		case Exchange:
			for _, mv := range st.Moves {
				if mv.SrcTile < 0 || mv.SrcTile >= cfg.NumTiles() {
					err = fmt.Errorf("graph: exchange %q from invalid tile %d", st.Name, mv.SrcTile)
					return
				}
				for _, d := range mv.DstTiles {
					if d < 0 || d >= cfg.NumTiles() {
						err = fmt.Errorf("graph: exchange %q to invalid tile %d", st.Name, d)
						return
					}
				}
			}
		case Repeat:
			check(st.Body)
		case While:
			check(st.Body)
		case If:
			if st.Then != nil {
				check(st.Then)
			}
			if st.Else != nil {
				check(st.Else)
			}
		}
	}
	check(s)
	return err
}

// String renders the report.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program: %d steps (%d compute sets, %d exchanges, %d host calls, %d loops, %d conds), depth %d\n",
		r.Steps, r.ComputeSets, r.Exchanges, r.HostCalls, r.Loops, r.Conditionals, r.MaxDepth)
	fmt.Fprintf(&sb, "vertices: %d (max %d workers/tile), moves: %d\n", r.Vertices, r.MaxWorkers, r.Moves)
	labels := make([]string, 0, len(r.Labels))
	for l := range r.Labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&sb, "  %-24s %d compute sets\n", l, r.Labels[l])
	}
	return sb.String()
}
