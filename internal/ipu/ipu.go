// Package ipu models a GraphCore Mk2-class Intelligence Processing Unit.
//
// The model is the substitution for the real hardware (which is unavailable):
// it is functional where the paper's results are numerical (codelets execute
// real float32 arithmetic elsewhere in this repository) and analytical where
// the results are performance numbers. The analytical part captures exactly
// the architectural properties the paper's claims rest on:
//
//   - Thousands of independent tiles, each with a small private SRAM that only
//     its own core can access (no cache hierarchy, no shared memory).
//   - Six hardware worker threads per tile, time-interleaved in a six-slot
//     round robin. Floating-point instructions have a six-cycle latency, so a
//     single worker completes one operation per six cycles and six concurrent
//     workers saturate the pipeline. A compute phase on a tile therefore
//     finishes after max over its workers of the worker's accumulated op
//     latency — which is why level-set scheduling to all six workers matters.
//   - Bulk-synchronous-parallel execution: compute supersteps separated by
//     global synchronization barriers, followed by compiler-scheduled
//     exchange phases.
//   - A stateless all-to-all on-chip exchange fabric: the cost of an exchange
//     phase is governed by the maximum per-tile traffic, not by the total
//     traffic, and a block sent to several destination tiles is billed once on
//     the sender (hardware broadcast). Inter-chip traffic crosses the slower,
//     stateful IPU-Links.
//   - Two-pipeline tiles: one floating-point and one load/store/integer
//     pipeline that dual-issue; a codelet's cycle count is the maximum of the
//     two pipelines' totals.
//
// Cycle costs of the scalar types come from Table I of the paper.
package ipu

import (
	"errors"
	"fmt"
)

// Config describes an IPU system. The zero value is not valid; use
// DefaultConfig or Mk2M2000 and adjust.
type Config struct {
	Chips          int     // number of IPU chips connected by IPU-Links
	TilesPerChip   int     // Mk2: 1472
	WorkersPerTile int     // Mk2: 6
	TileMemory     int     // bytes of SRAM per tile; Mk2: ~612 kB
	ClockHz        float64 // Mk2: 1.33 GHz

	// ExchangeBytesPerCycle is the per-tile on-chip exchange bandwidth.
	// Mk2: 47.5 TB/s aggregate / 1472 tiles / 1.33 GHz ≈ 24 B/cycle,
	// conservatively 8 B/cycle per direction for sustained patterns.
	ExchangeBytesPerCycle float64
	// LinkBytesPerCycle is the effective per-tile inter-chip bandwidth when a
	// transfer crosses IPU-Links (much lower than on-chip exchange).
	LinkBytesPerCycle float64
	// SyncCycles is the fixed BSP synchronization cost per superstep.
	SyncCycles uint64
	// ExchangeSetupCycles is the fixed cost to enter an exchange phase.
	ExchangeSetupCycles uint64
	// ExchangeInstrCycles is the per-transfer-instruction issue cost on the
	// sending tile; it is what makes large per-cell communication programs
	// slower than the blockwise programs the reordering strategy produces.
	ExchangeInstrCycles uint64
	// WattsPerChip is the measured per-chip power draw (paper: 420 W for four
	// chips on an M2000, i.e. 105 W per chip).
	WattsPerChip float64
}

// Mk2M2000 returns the configuration of one GraphCore M2000 machine
// (four Mk2 IPUs) as benchmarked in the paper.
func Mk2M2000() Config {
	return Config{
		Chips:                 4,
		TilesPerChip:          1472,
		WorkersPerTile:        6,
		TileMemory:            624 * 1024,
		ClockHz:               1.33e9,
		ExchangeBytesPerCycle: 8,
		// IPU-Links provide ~320 GB/s per chip; during a halo exchange only
		// the subdomain-boundary tiles (a small fraction of 1472) contend
		// for them, so the effective per-transferring-tile rate is well
		// above the all-tiles average of ~0.16 B/cycle.
		LinkBytesPerCycle:   1.5,
		SyncCycles:          150,
		ExchangeSetupCycles: 50,
		ExchangeInstrCycles: 4,
		WattsPerChip:        105,
	}
}

// DefaultConfig returns a small single-chip configuration suitable for tests
// and examples: 64 tiles with the Mk2 per-tile parameters.
func DefaultConfig() Config {
	c := Mk2M2000()
	c.Chips = 1
	c.TilesPerChip = 64
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Chips <= 0:
		return errors.New("ipu: Chips must be positive")
	case c.TilesPerChip <= 0:
		return errors.New("ipu: TilesPerChip must be positive")
	case c.WorkersPerTile <= 0:
		return errors.New("ipu: WorkersPerTile must be positive")
	case c.TileMemory <= 0:
		return errors.New("ipu: TileMemory must be positive")
	case c.ClockHz <= 0:
		return errors.New("ipu: ClockHz must be positive")
	case c.ExchangeBytesPerCycle <= 0:
		return errors.New("ipu: ExchangeBytesPerCycle must be positive")
	case c.LinkBytesPerCycle <= 0:
		return errors.New("ipu: LinkBytesPerCycle must be positive")
	}
	return nil
}

// NumTiles returns the total tile count across all chips.
func (c Config) NumTiles() int { return c.Chips * c.TilesPerChip }

// Chip returns the chip index that owns the given tile.
func (c Config) Chip(tile int) int { return tile / c.TilesPerChip }

// Machine is a simulated IPU system: a set of tiles plus cycle, memory and
// energy accounting. Machines are not safe for concurrent use; the engine in
// internal/graph serializes access.
type Machine struct {
	cfg   Config
	tiles []Tile

	// Cycle accounting by phase.
	computeCycles  uint64
	exchangeCycles uint64
	syncCycles     uint64
	supersteps     uint64
	exchanges      uint64
	// Communication-program size: number of transfer instructions issued.
	exchangeInstructions uint64
	exchangeBytes        uint64

	// Exchange costing scratch (see CostExchange): accBuf holds the five
	// per-tile integer accumulators (instructions, on-chip/link send bytes,
	// on-chip/link receive bytes) and chipMark the per-transfer chip-dedup
	// stamps; both are zero outside CostExchange. xcost is Exchange's cost.
	accBuf   []int64
	chipMark []int64
	xcost    ExchangeCost
}

// Tile is one processor core with its private SRAM.
type Tile struct {
	ID       int
	Chip     int
	MemUsed  int
	MemPeak  int
	Cycles   uint64 // accumulated compute cycles on this tile
	XBytes   uint64 // accumulated exchange traffic (sent + received bytes)
	MaxBytes int
}

// New creates a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, tiles: make([]Tile, cfg.NumTiles())}
	for i := range m.tiles {
		m.tiles[i] = Tile{ID: i, Chip: cfg.Chip(i), MaxBytes: cfg.TileMemory}
	}
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumTiles returns the number of tiles in the machine.
func (m *Machine) NumTiles() int { return len(m.tiles) }

// Tile returns a pointer to tile t for inspection.
func (m *Machine) Tile(t int) *Tile { return &m.tiles[t] }

// Alloc reserves bytes of SRAM on tile t. It fails when the tile memory would
// be exceeded, mirroring the hard 612 kB limit of the hardware.
func (m *Machine) Alloc(t, bytes int) error {
	tile := &m.tiles[t]
	if tile.MemUsed+bytes > tile.MaxBytes {
		return fmt.Errorf("ipu: tile %d out of memory: %d + %d > %d bytes",
			t, tile.MemUsed, bytes, tile.MaxBytes)
	}
	tile.MemUsed += bytes
	if tile.MemUsed > tile.MemPeak {
		tile.MemPeak = tile.MemUsed
	}
	return nil
}

// Free releases bytes of SRAM on tile t.
func (m *Machine) Free(t, bytes int) {
	tile := &m.tiles[t]
	tile.MemUsed -= bytes
	if tile.MemUsed < 0 {
		tile.MemUsed = 0
	}
}

// Compute accounts one BSP compute superstep. tileCycles[t] is the cycle cost
// of tile t for this compute set (already reduced over its workers with
// WorkerMax). The superstep takes the maximum over all tiles plus the global
// sync barrier, following the BSP model. It returns the superstep's cycles.
func (m *Machine) Compute(tileCycles []uint64) uint64 {
	var max uint64
	for t, c := range tileCycles {
		if c > 0 {
			m.tiles[t].Cycles += c
		}
		if c > max {
			max = c
		}
	}
	step := max + m.cfg.SyncCycles
	m.computeCycles += max
	m.syncCycles += m.cfg.SyncCycles
	m.supersteps++
	return step
}

// ComputeSparse accounts one BSP compute superstep from a sparse cost list:
// cycles[i] is the cost of tiles[i], every other tile is idle. It is exactly
// Compute over a dense vector whose unlisted entries are zero — the uint64
// max and per-tile additions are order-independent, which is what lets the
// engine fill the cost list from concurrent shards and still produce
// bit-identical accounting at any parallelism level.
func (m *Machine) ComputeSparse(tiles []int, cycles []uint64) uint64 {
	var max uint64
	for i, t := range tiles {
		c := cycles[i]
		if c > 0 {
			m.tiles[t].Cycles += c
		}
		if c > max {
			max = c
		}
	}
	step := max + m.cfg.SyncCycles
	m.computeCycles += max
	m.syncCycles += m.cfg.SyncCycles
	m.supersteps++
	return step
}

// ErrOversubscribed reports a compute set that places more worker vertices on
// a tile than the tile has hardware thread slots.
var ErrOversubscribed = errors.New("ipu: worker slots oversubscribed")

// WorkerMax reduces per-worker costs on one tile to the tile's compute time:
// workers run concurrently in the six-slot round robin, so the tile finishes
// with its slowest worker. Passing more workers than the tile has slots
// returns ErrOversubscribed so the engine can surface the offending step.
func (m *Machine) WorkerMax(workerCycles []uint64) (uint64, error) {
	if len(workerCycles) > m.cfg.WorkersPerTile {
		return 0, fmt.Errorf("%w: %d workers for %d slots", ErrOversubscribed, len(workerCycles), m.cfg.WorkersPerTile)
	}
	var max uint64
	for _, c := range workerCycles {
		if c > max {
			max = c
		}
	}
	return max, nil
}

// Transfer is one communication-program instruction: a contiguous block of
// Bytes sent from SrcTile to every tile in DstTiles. The all-to-all fabric
// broadcasts: the sender is billed once regardless of the destination count;
// every receiver is billed the block size.
type Transfer struct {
	SrcTile  int
	Bytes    int
	DstTiles []int
}

// ExchangeStats summarizes one exchange phase.
type ExchangeStats struct {
	Cycles       uint64
	Instructions int
	Bytes        uint64 // sender-side bytes (broadcasts counted once)
}

// ExchangeCost is the pure cost of one exchange phase: what Exchange bills,
// computed from the transfer list and the machine configuration alone. The
// traffic of the tiles the phase touches is listed sparsely, so billing a
// cost (BillExchange) touches only those tiles.
type ExchangeCost struct {
	ExchangeStats
	Tiles   []int    // tiles with traffic, ascending
	Traffic []uint64 // sent plus received bytes of Tiles[i]
}

// CostExchange computes into c, reusing its slices, the cost of one BSP
// exchange phase consisting of the given transfer instructions. The phase
// cost is the maximum per-tile traffic divided by the per-tile exchange
// bandwidth (link bandwidth for transfers that cross chips), plus the fixed
// setup cost. This is the property that yields the paper's flat weak scaling:
// total traffic grows with the machine, per-tile traffic does not. Traffic is
// accumulated per tile as integer byte and instruction counts and converted
// to cycles once at the end. An empty transfer list costs nothing.
func (m *Machine) CostExchange(transfers []Transfer, c *ExchangeCost) {
	c.ExchangeStats = ExchangeStats{}
	c.Tiles, c.Traffic = c.Tiles[:0], c.Traffic[:0]
	if len(transfers) == 0 {
		return
	}
	nt := len(m.tiles)
	if m.accBuf == nil {
		m.accBuf = make([]int64, 5*nt)
		m.chipMark = make([]int64, m.cfg.Chips)
	}
	instr := m.accBuf[:nt]
	sendOn := m.accBuf[nt : 2*nt]
	sendLink := m.accBuf[2*nt : 3*nt]
	recvOn := m.accBuf[3*nt : 4*nt]
	recvLink := m.accBuf[4*nt:]
	for i := range transfers {
		tr := &transfers[i]
		src := tr.SrcTile
		srcChip := m.cfg.Chip(src)
		b := int64(tr.Bytes)
		// A broadcast is sent once on chip; if any destination is on a
		// remote chip the block additionally traverses the IPU-Link once
		// per remote chip. Each instruction costs issue overhead on the
		// sender, which is why blockwise programs beat per-cell programs.
		instr[src]++
		sendOn[src] += b
		stamp := int64(i) + 1
		var remote int64
		for _, d := range tr.DstTiles {
			if dc := m.cfg.Chip(d); dc != srcChip {
				if m.chipMark[dc] != stamp {
					m.chipMark[dc] = stamp
					remote++
				}
				recvLink[d] += b
			} else {
				recvOn[d] += b
			}
		}
		sendLink[src] += remote * b
		c.Bytes += uint64(tr.Bytes)
	}

	// Fold the integer per-tile totals to cycles and take the BSP max.
	instrC := float64(m.cfg.ExchangeInstrCycles)
	exBW, linkBW := m.cfg.ExchangeBytesPerCycle, m.cfg.LinkBytesPerCycle
	var max float64
	for t := 0; t < nt; t++ {
		if traffic := sendOn[t] + sendLink[t] + recvOn[t] + recvLink[t]; traffic > 0 {
			c.Tiles = append(c.Tiles, t)
			c.Traffic = append(c.Traffic, uint64(traffic))
		}
		v := float64(instr[t])*instrC + float64(sendOn[t])/exBW + float64(sendLink[t])/linkBW
		if r := float64(recvOn[t])/exBW + float64(recvLink[t])/linkBW; r > v {
			v = r
		}
		if v > max {
			max = v
		}
	}
	clear(m.accBuf) // restore the all-zero invariants for the next phase
	clear(m.chipMark)
	c.Cycles = uint64(max) + m.cfg.ExchangeSetupCycles
	c.Instructions = len(transfers)
}

// BillExchange accounts one exchange phase of the given cost and returns its
// summary. A cost depends on the transfer list alone, so a phase that repeats
// bills the same cost again.
func (m *Machine) BillExchange(c *ExchangeCost) ExchangeStats {
	if c.Instructions == 0 {
		return ExchangeStats{}
	}
	for i, t := range c.Tiles {
		m.tiles[t].XBytes += c.Traffic[i]
	}
	m.exchangeCycles += c.Cycles
	m.exchanges++
	m.exchangeInstructions += uint64(c.Instructions)
	m.exchangeBytes += c.Bytes
	return c.ExchangeStats
}

// Exchange accounts one BSP exchange phase consisting of the given transfer
// instructions: CostExchange, then BillExchange.
func (m *Machine) Exchange(transfers []Transfer) ExchangeStats {
	m.CostExchange(transfers, &m.xcost)
	return m.BillExchange(&m.xcost)
}

// Stats is a snapshot of the machine's accumulated accounting.
type Stats struct {
	ComputeCycles        uint64
	ExchangeCycles       uint64
	SyncCycles           uint64
	TotalCycles          uint64
	Supersteps           uint64
	Exchanges            uint64
	ExchangeInstructions uint64
	ExchangeBytes        uint64
	Seconds              float64
	EnergyJoules         float64
	MemPeakBytes         int // maximum SRAM high-water mark over tiles
}

// Stats returns the current accounting snapshot.
func (m *Machine) Stats() Stats {
	total := m.computeCycles + m.exchangeCycles + m.syncCycles
	secs := float64(total) / m.cfg.ClockHz
	peak := 0
	for i := range m.tiles {
		if m.tiles[i].MemPeak > peak {
			peak = m.tiles[i].MemPeak
		}
	}
	return Stats{
		ComputeCycles:        m.computeCycles,
		ExchangeCycles:       m.exchangeCycles,
		SyncCycles:           m.syncCycles,
		TotalCycles:          total,
		Supersteps:           m.supersteps,
		Exchanges:            m.exchanges,
		ExchangeInstructions: m.exchangeInstructions,
		ExchangeBytes:        m.exchangeBytes,
		Seconds:              secs,
		EnergyJoules:         secs * m.cfg.WattsPerChip * float64(m.cfg.Chips),
		MemPeakBytes:         peak,
	}
}

// ResetStats clears all cycle accounting but keeps memory allocations.
func (m *Machine) ResetStats() {
	m.computeCycles, m.exchangeCycles, m.syncCycles = 0, 0, 0
	m.supersteps, m.exchanges = 0, 0
	m.exchangeInstructions, m.exchangeBytes = 0, 0
	for i := range m.tiles {
		m.tiles[i].Cycles = 0
		m.tiles[i].XBytes = 0
	}
}

// Seconds converts a cycle count to seconds at the configured clock.
func (m *Machine) Seconds(cycles uint64) float64 {
	return float64(cycles) / m.cfg.ClockHz
}

// Utilization summarizes per-tile compute-cycle balance over the run so far.
type Utilization struct {
	MaxTileCycles  uint64
	MeanTileCycles float64
	// Balance is mean/max in [0,1]; 1.0 means perfectly balanced tiles.
	Balance float64
	// ActiveTiles counts tiles that executed any compute cycles.
	ActiveTiles int
}

// Utilization computes the compute balance across tiles — the load-balance
// lens on the BSP model, where every superstep waits for its slowest tile.
func (m *Machine) Utilization() Utilization {
	var u Utilization
	var sum uint64
	for i := range m.tiles {
		c := m.tiles[i].Cycles
		if c > 0 {
			u.ActiveTiles++
		}
		sum += c
		if c > u.MaxTileCycles {
			u.MaxTileCycles = c
		}
	}
	if len(m.tiles) > 0 {
		u.MeanTileCycles = float64(sum) / float64(len(m.tiles))
	}
	if u.MaxTileCycles > 0 {
		u.Balance = u.MeanTileCycles / float64(u.MaxTileCycles)
	}
	return u
}
