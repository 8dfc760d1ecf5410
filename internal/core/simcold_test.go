package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// simColdEntry is one entry of the sim-cold suite with everything the
// simulator must repeat for it.
type simColdEntry struct {
	gen, cfg   string
	strategy   PartitionStrategy
	iterations int
	relRes, x  uint64 // float64 bits of relRes; FNV-1a of x's bits
	stats      ipu.Stats
	tiles      uint64            // FNV-1a of every tile's (Cycles, XBytes)
	profile    map[string]uint64 // cycles per profiling label (Table IV's classes)
}

// TestSimColdCountsExact pins the simulated counts of one cold pass of the
// benchmark's sim-cold suite: same matrices, same configs (read from
// benchmark/configs), 64 tiles, b = A·1. IPU cycle counts depend only on the
// sparsity pattern and the compiled program, so these numbers repeat exactly;
// a change that moves simulated cycles edits them here, visibly. Per entry it
// pins the whole machine accounting (ipu.Stats), each tile's compute cycles
// and exchange traffic (as one FNV-1a), the per-label cycle profile, the
// iteration count, the relative residual's bits and an FNV-1a of x's float64
// bits; for the first entry also every traced phase (name, kind, start,
// cycles). A change to how the simulator computes values or bills cycles
// must leave all of it exactly.
func TestSimColdCountsExact(t *testing.T) {
	suite := []simColdEntry{
		{"poisson3d:24", "sim-mpir-dw-ilu.json", PartitionContiguous, 49, 0x3dfb4fdb1bc0cb2f, 0x2741ee1863dda356,
			ipu.Stats{ComputeCycles: 2_391_622, ExchangeCycles: 65_089, SyncCycles: 189_150, TotalCycles: 2_645_861,
				Supersteps: 1_261, Exchanges: 609, ExchangeInstructions: 48_534, ExchangeBytes: 5_927_168,
				Seconds: 0.0019893691729323307, EnergyJoules: 0.20888376315789473, MemPeakBytes: 38_324},
			0x210eabbd8c9733f5,
			map[string]uint64{"Elementwise Ops": 266_196, "Exchange": 30_802, "Extended-Precision Ops": 169_954,
				"ILU(0) Factor": 2_994, "ILU(0) Solve": 1_098_384, "Reduce": 456_931, "SpMV": 620_600}},
		{"poisson3d:24", "sim-cg-chebyshev.json", PartitionContiguous, 45, 0x3eaab3c80ad29149, 0xbe47da65ccd16b6a,
			ipu.Stats{ComputeCycles: 1_753_651, ExchangeCycles: 76_493, SyncCycles: 194_550, TotalCycles: 2_024_694,
				Supersteps: 1_297, Exchanges: 488, ExchangeInstructions: 70_324, ExchangeBytes: 10_765_056,
				Seconds: 0.0015223263157894736, EnergyJoules: 0.15984426315789474, MemPeakBytes: 28_804},
			0x072f1b4ff9b9084d,
			map[string]uint64{"Elementwise Ops": 546_669, "Exchange": 56_648, "Reduce": 217_413, "SpMV": 1_203_964}},
		{"stencil27:16", "sim-bicgstab-ilu-coarse.json", PartitionGreedy, 22, 0x3e8f51ae63d6cf42, 0xfb81ad10d0e2ccc4,
			ipu.Stats{ComputeCycles: 3_917_279, ExchangeCycles: 57_633, SyncCycles: 117_150, TotalCycles: 4_092_062,
				Supersteps: 781, Exchanges: 401, ExchangeInstructions: 171_844, ExchangeBytes: 1_354_164,
				Seconds: 0.003076738345864662, EnergyJoules: 0.3230575263157895, MemPeakBytes: 55_748},
			0x88affcbb05796277,
			map[string]uint64{"Coarse Factor": 1_048_742, "Coarse Solve": 1_129_128, "Elementwise Ops": 74_909,
				"Exchange": 24_297, "ILU(0) Factor": 17_072, "ILU(0) Solve": 1_001_352, "Reduce": 121_408, "SpMV": 675_154}},
	}
	const traceEvents, traceHash = 2_079, 0x840b192e4c3424b // the first entry's timeline
	mc := mpirMachine()

	var total ipu.Stats
	for i, e := range suite {
		f, err := os.Open(filepath.Join("..", "..", "benchmark", "configs", e.cfg))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.cfg, err)
		}
		m, err := sparse.GenByName(e.gen)
		if err != nil {
			t.Fatal(err)
		}
		ones := make([]float64, m.N)
		for i := range ones {
			ones[i] = 1
		}
		b := make([]float64, m.N)
		m.MulVec(ones, b)

		p, err := Prepare(mc, m, cfg, e.strategy, WithBackend("sim"))
		if err != nil {
			t.Fatalf("%s x %s: %v", e.gen, e.cfg, err)
		}
		r, err := p.Solve(b)
		if err != nil {
			t.Fatalf("%s x %s: %v", e.gen, e.cfg, err)
		}
		name := e.gen + " x " + e.cfg
		if !r.Stats.Converged {
			t.Errorf("%s: did not converge", name)
		}
		if r.Stats.Iterations != e.iterations {
			t.Errorf("%s: %d iterations, want %d", name, r.Stats.Iterations, e.iterations)
		}
		if r.Machine != e.stats {
			t.Errorf("%s: machine accounting\n%#v\nwant\n%#v", name, r.Machine, e.stats)
		}
		h := fnv.New64a()
		for _, v := range r.X {
			putWord(h, math.Float64bits(v))
		}
		if rel, x := math.Float64bits(r.Stats.RelRes), h.Sum64(); rel != e.relRes || x != e.x {
			t.Errorf("%s: relRes bits %#x, x hash %#x; want %#x, %#x", name, rel, x, e.relRes, e.x)
		}
		h.Reset()
		for tile := 0; tile < p.ctx.Machine.NumTiles(); tile++ {
			tl := p.ctx.Machine.Tile(tile)
			putWord(h, tl.Cycles)
			putWord(h, tl.XBytes)
		}
		if got := h.Sum64(); got != e.tiles {
			t.Errorf("%s: per-tile cycles and traffic hash %#x, want %#x", name, got, e.tiles)
		}
		profile := map[string]uint64{}
		for _, pe := range r.Profile {
			profile[pe.Label] = pe.Cycles
		}
		if !maps.Equal(profile, e.profile) {
			t.Errorf("%s: profile %#v, want %#v", name, profile, e.profile)
		}
		if i == 0 {
			// A warm re-run is bit- and cycle-identical to the cold one;
			// this one records the device timeline.
			p.mu.Lock()
			_, _, err := p.runLocked(b, runOptions{trace: io.Discard})
			tr := p.tracer
			p.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			for _, ev := range tr.Events {
				io.WriteString(h, ev.Name+"\x00"+ev.Kind+"\x00")
				putWord(h, ev.Start)
				putWord(h, ev.Cycles)
			}
			if n, got := len(tr.Events), h.Sum64(); n != traceEvents || got != traceHash {
				t.Errorf("%s: %d trace events hashing to %#x, want %d and %#x", name, n, got, traceEvents, uint64(traceHash))
			}
		}
		total.ComputeCycles += r.Machine.ComputeCycles
		total.ExchangeCycles += r.Machine.ExchangeCycles
		total.SyncCycles += r.Machine.SyncCycles
		total.TotalCycles += r.Machine.TotalCycles
		total.Supersteps += r.Machine.Supersteps
		total.ExchangeBytes += r.Machine.ExchangeBytes
	}
	want := ipu.Stats{ComputeCycles: 8_062_552, ExchangeCycles: 199_215, SyncCycles: 500_850,
		TotalCycles: 8_762_617, Supersteps: 3_339, ExchangeBytes: 18_046_388}
	if total != want {
		t.Errorf("suite totals %+v; want %+v", total, want)
	}
}

func putWord(h hash.Hash64, v uint64) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], v)
	h.Write(word[:])
}
