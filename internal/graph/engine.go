package graph

import (
	"fmt"
	"sort"
	"sync"

	"ipusparse/internal/hostpool"
	"ipusparse/internal/ipu"
)

// Engine is the accounting layer over the one executor (see Stream): it runs
// a program's lowered stream on a simulated IPU machine, executing and
// billing every compute superstep and exchange phase, and accumulates
// per-label cycle profiles. It plays the role of the Poplar engine plus its
// profiler.
//
// A compute set is billed or interpreted (see Codelet). A billed set runs its
// native kernel once per superstep, on the coordinator, and bills each tile a
// cost computed on the set's first execution: the kernel does the codelets'
// arithmetic in their order, and a Fixed vertex's cost cannot depend on data.
// An interpreted set runs its vertices; its supersteps are sharded across the
// shared host worker pool (package hostpool): BSP semantics guarantee tiles
// touch only their own SRAM within a compute superstep, so the tile list of a
// frozen compute set splits into contiguous ranges that execute concurrently.
// Every shard writes per-tile costs into disjoint slots and the coordinator
// merges them with order-independent reductions (uint64 max, integer sums),
// so results and cycle profiles are bit-identical at every parallelism level
// — including serial. Nondeterminism sources (Injector decisions, the Tracer,
// the Profile map) stay on the coordinator goroutine, and fault-campaign runs
// fall back to serial shards so seeded campaigns replay exactly.
//
// An exchange's cost depends on its move list alone, so a fault-free run
// costs each exchange phase once (ipu.Machine.CostExchange) and bills the
// same cost every later time it runs; its moves' data movement still runs
// every time. Under a fault campaign the phase bills its actual transfer
// list, re-delivered drops included, through the same costing.
type Engine struct {
	M *ipu.Machine

	// Profile maps a profiling label to accumulated cycles (compute
	// supersteps under their compute-set label, exchange phases under their
	// exchange label).
	Profile map[string]uint64

	// Supersteps counts executed compute supersteps.
	Supersteps uint64

	// Injector, when non-nil, is consulted at superstep boundaries to inject
	// faults (see Injector). Nil is the fault-free fast path.
	Injector Injector

	// FaultRetries counts exchange payloads the fabric redelivered after a
	// parity-detected drop (each one bills its traffic twice).
	FaultRetries uint64

	par    int // host shards per superstep (>= 1)
	shards []computeShard
	wg     sync.WaitGroup

	costBuf         []uint64 // per-entry superstep costs, reused every superstep
	tileCost        []uint64 // dense per-tile costs of a stalled superstep
	transferScratch []ipu.Transfer
	xcosts          map[*Move]*ipu.ExchangeCost // fault-free exchange costs, by first move
	tracer          *Tracer
	metrics         *EngineMetrics
}

// minShardEntries is the smallest number of populated tiles one shard is
// worth: below parallelism*minShardEntries the superstep runs on fewer
// shards (down to one) because the handoff would cost more than it saves.
// The shard count never affects results, only wall time.
const minShardEntries = 16

// NewEngine creates an engine for the machine. The default parallelism is
// the shared host pool's worker count (GOMAXPROCS); use SetParallelism to
// pin it (1 = serial execution on the coordinator goroutine).
func NewEngine(m *ipu.Machine) *Engine {
	e := &Engine{
		M:        m,
		Profile:  map[string]uint64{},
		tileCost: make([]uint64, m.NumTiles()),
	}
	e.SetParallelism(0)
	return e
}

// SetParallelism sets the number of host shards used per interpreted compute
// superstep: 0 selects the shared pool's worker count (GOMAXPROCS), 1
// executes serially. Results are bit-identical and cycle-identical at every
// setting; parallelism only changes host wall time.
func (e *Engine) SetParallelism(p int) {
	if p <= 0 {
		p = hostpool.Parallelism()
	}
	e.par = p
	if cap(e.shards) < p {
		e.shards = make([]computeShard, p)
	}
}

// Parallelism returns the configured host-shard count.
func (e *Engine) Parallelism() int { return e.par }

// Reserve pre-sizes the exchange scratch for the largest move list the
// program contains (Report.MaxExchangeMoves), so steady-state supersteps
// never grow it. A little slack absorbs fault-injected redeliveries.
func (e *Engine) Reserve(maxMoves int) {
	if need := maxMoves + maxMoves/8 + 4; need > cap(e.transferScratch) {
		e.transferScratch = make([]ipu.Transfer, 0, need)
	}
}

// Run lowers the program (see Lower) and runs the stream with the engine
// attached: a one-shot run. A program that runs more than once is lowered
// once and handed to RunStream each time.
func (e *Engine) Run(program Step) error {
	s, err := Lower(program, e.M.NumTiles())
	if err != nil {
		return err
	}
	return e.RunStream(s)
}

// RunStream runs a lowered stream under e.Injector with the engine executing
// and billing every compute superstep and exchange phase.
func (e *Engine) RunStream(s *Stream) error {
	e.transferScratch = e.transferScratch[:0]
	_, err := s.exec(e, e.Injector)
	return err
}

// SetTracer attaches (or, with nil, detaches) a device-timeline tracer.
// Persistent engines reuse this between runs: Trace only ever attaches.
func (e *Engine) SetTracer(t *Tracer) { e.tracer = t }

// ResetProfile clears the per-label profile (machine stats are reset
// separately via the machine). The map is reused, not reallocated, so
// alternating Run/ResetProfile cycles allocate nothing.
func (e *Engine) ResetProfile() {
	clear(e.Profile)
	e.Supersteps = 0
}

func (e *Engine) addProfile(label string, cycles uint64) {
	if label == "" {
		label = "Unlabeled"
	}
	e.Profile[label] += cycles
}

// computeShard executes one contiguous range of a frozen compute set's tiles.
// It owns its slice of the cost buffer (disjoint from every other shard) and
// records the first failing entry, so the coordinator can surface errors in
// deterministic program order regardless of shard interleaving.
type computeShard struct {
	tiles    []int
	verts    [][]Codelet
	costs    []uint64
	base     int // global index of the shard's first entry
	numTiles int
	slots    int
	err      error
	errIdx   int
	wg       *sync.WaitGroup
}

// Run implements hostpool.Task.
func (sh *computeShard) Run() {
	sh.run()
	sh.wg.Done()
}

func (sh *computeShard) run() {
	for i, ws := range sh.verts {
		tile := sh.tiles[i]
		if tile < 0 || tile >= sh.numTiles {
			if sh.err == nil {
				sh.err = fmt.Errorf("graph: compute set places vertex on invalid tile %d", tile)
				sh.errIdx = sh.base + i
			}
			continue
		}
		// Workers run concurrently in the tile's round robin, so the tile
		// finishes with its slowest worker (ipu.WorkerMax semantics, inlined
		// to keep the superstep allocation-free).
		var max uint64
		for _, w := range ws {
			if c := w.Run(); c > max {
				max = c
			}
		}
		if len(ws) > sh.slots && sh.err == nil {
			sh.err = fmt.Errorf("tile %d: %w: %d workers for %d slots",
				tile, ipu.ErrOversubscribed, len(ws), sh.slots)
			sh.errIdx = sh.base + i
		}
		sh.costs[i] = max
	}
}

// compute executes one compute superstep of cs and bills it. A billed set
// runs its native kernel and bills its frozen per-tile cost; an interpreted
// set runs its codelets across the engine's shards, or serially on the
// coordinator under a fault campaign so that the codelets meet the
// injector's bit flips in program order. The executor consulted the injector
// already: a stall lengthens stallTile's compute phase.
func (e *Engine) compute(cs *ComputeSet, injected bool, stallTile int, stall uint64) error {
	fs := cs.finalized()
	if !fs.resolved {
		if err := e.resolve(cs, fs); err != nil {
			return err
		}
	}
	costs, shards := fs.bill, 1
	if costs != nil {
		cs.NativeKernel.Run()
	} else {
		if !injected {
			shards = e.par
		}
		var err error
		if costs, shards, err = e.interpret(fs, shards); err != nil {
			return &StepError{Step: cs.Name, Superstep: e.Supersteps, Err: err}
		}
	}
	var step uint64
	if stall > 0 && stallTile >= 0 && stallTile < len(e.tileCost) {
		clear(e.tileCost)
		for i, tile := range fs.tiles {
			e.tileCost[tile] = costs[i]
		}
		e.tileCost[stallTile] += stall
		step = e.M.Compute(e.tileCost)
	} else {
		step = e.M.ComputeSparse(fs.tiles, costs)
	}
	e.addProfile(cs.Label, step)
	if e.tracer != nil {
		e.tracer.add(cs.Name, cs.Label, "compute", step)
	}
	if e.metrics != nil {
		e.metrics.Supersteps.Inc()
		e.metrics.SuperstepCycles.Observe(float64(step))
		e.metrics.ShardsPerSuperstep.Observe(float64(shards))
	}
	return nil
}

// interpret runs an interpreted set's codelets on up to par host shards and
// returns the per-tile costs in tiles order and the shard count it used. The
// error is the failing entry with the smallest index, independent of shard
// scheduling.
func (e *Engine) interpret(fs *frozenSet, par int) ([]uint64, int, error) {
	n := len(fs.tiles)
	if cap(e.costBuf) < n {
		e.costBuf = make([]uint64, n)
	}
	costs := e.costBuf[:n]
	nsh := max(min(par, n/minShardEntries), 1)
	shards := e.shards[:nsh]
	slots := e.M.Config().WorkersPerTile
	nt := e.M.NumTiles()
	for s := 0; s < nsh; s++ {
		lo, hi := n*s/nsh, n*(s+1)/nsh
		shards[s] = computeShard{
			tiles:    fs.tiles[lo:hi],
			verts:    fs.verts[lo:hi],
			costs:    costs[lo:hi],
			base:     lo,
			numTiles: nt,
			slots:    slots,
			wg:       &e.wg,
		}
	}
	if nsh == 1 {
		shards[0].run()
	} else {
		e.wg.Add(nsh - 1)
		for s := 1; s < nsh; s++ {
			hostpool.Submit(&shards[s])
		}
		shards[0].run()
		e.wg.Wait()
	}
	var err error
	best := -1
	for s := range shards {
		if shards[s].err != nil && (best < 0 || shards[s].errIdx < best) {
			best, err = shards[s].errIdx, shards[s].err
		}
	}
	return costs, nsh, err
}

// resolve classifies a compute set on its first simulated execution and, for
// a billed one, computes its per-tile bill: the max over the tile's Fixed
// workers, like a tile finishing with its slowest worker.
func (e *Engine) resolve(cs *ComputeSet, fs *frozenSet) error {
	billed, err := cs.costOnly()
	if err != nil {
		return &StepError{Step: cs.Name, Superstep: e.Supersteps, Err: err}
	}
	if billed {
		slots := e.M.Config().WorkersPerTile
		bill := make([]uint64, len(fs.tiles))
		for i, ws := range fs.verts {
			if tile := fs.tiles[i]; tile < 0 || tile >= e.M.NumTiles() {
				return &StepError{Step: cs.Name, Superstep: e.Supersteps,
					Err: fmt.Errorf("graph: compute set places vertex on invalid tile %d", tile)}
			} else if len(ws) > slots {
				return &StepError{Step: cs.Name, Superstep: e.Supersteps,
					Err: fmt.Errorf("tile %d: %w: %d workers for %d slots", tile, ipu.ErrOversubscribed, len(ws), slots)}
			}
			for _, w := range ws {
				bill[i] = max(bill[i], uint64(w.(Fixed)))
			}
		}
		fs.bill = bill
	}
	fs.resolved = true
	return nil
}

// transfer adds a delivered move to the phase's transfer list under a fault
// campaign. A dropped payload is redelivered by the fabric, so its traffic is
// billed a second time on the same phase.
func (e *Engine) transfer(mv *Move, dropped bool) {
	t := transferFromMove(*mv)
	if dropped {
		e.transferScratch = append(e.transferScratch, t)
		if e.metrics != nil {
			e.metrics.FaultRetries.Inc()
		}
	}
	e.transferScratch = append(e.transferScratch, t)
}

// exchange bills one exchange phase whose moves have run: a fault-free phase
// its replayed cost (see exchangeCost), a phase under a fault campaign its
// actual transfer list.
func (e *Engine) exchange(name, label string, moves []Move, injected bool) {
	var st ipu.ExchangeStats
	if injected {
		st = e.M.Exchange(e.transferScratch)
		e.transferScratch = e.transferScratch[:0]
	} else {
		st = e.M.BillExchange(e.exchangeCost(moves))
	}
	e.addProfile(label, st.Cycles)
	if e.tracer != nil {
		e.tracer.add(name, label, "exchange", st.Cycles)
	}
	if e.metrics != nil {
		e.metrics.Exchanges.Inc()
		e.metrics.ExchangeCycles.Observe(float64(st.Cycles))
		e.metrics.ExchangeBytes.Observe(float64(st.Bytes))
	}
}

// hostCall records one host callback. Host callbacks are zero-cycle on the
// device timeline; they show up as instants on the host-call track of the
// exported trace.
func (e *Engine) hostCall(name string) {
	if e.metrics != nil {
		e.metrics.HostCalls.Inc()
	}
	if e.tracer != nil {
		e.tracer.add(name, "Host", "host", 0)
	}
}

// exchangeCost returns the cost of a fault-free exchange phase, computed on
// the phase's first execution. The key is the phase's first move: a program's
// exchanges each own their move list.
func (e *Engine) exchangeCost(moves []Move) *ipu.ExchangeCost {
	if c := e.xcosts[&moves[0]]; c != nil {
		return c
	}
	transfers := e.transferScratch[:0]
	for i := range moves {
		transfers = append(transfers, transferFromMove(moves[i]))
	}
	c := &ipu.ExchangeCost{}
	e.M.CostExchange(transfers, c)
	e.transferScratch = transfers[:0]
	if e.xcosts == nil {
		e.xcosts = map[*Move]*ipu.ExchangeCost{}
	}
	e.xcosts[&moves[0]] = c
	return c
}

// ProfileShares returns the profile as (label, fraction-of-total) pairs
// sorted by decreasing share — the Table IV presentation.
func (e *Engine) ProfileShares() []ProfileEntry {
	var total uint64
	for _, c := range e.Profile {
		total += c
	}
	out := make([]ProfileEntry, 0, len(e.Profile))
	for l, c := range e.Profile {
		pe := ProfileEntry{Label: l, Cycles: c}
		if total > 0 {
			pe.Share = float64(c) / float64(total)
		}
		out = append(out, pe)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// ProfileEntry is one row of the cycle profile.
type ProfileEntry struct {
	Label  string
	Cycles uint64
	Share  float64
}

func transferFromMove(mv Move) ipu.Transfer {
	return ipu.Transfer{SrcTile: mv.SrcTile, Bytes: mv.Bytes, DstTiles: mv.DstTiles}
}
