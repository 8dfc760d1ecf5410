package solver_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
)

// digestRegistry feeds every device buffer a session allocates, in order,
// into the schedule digest: allocation order is what a fault campaign's bit
// flips target, so it is part of the schedule.
type digestRegistry struct{ h hash.Hash64 }

func (d digestRegistry) RegisterBuffer(tile int, name string, _ *graph.Buffer) {
	fmt.Fprintf(d.h, "buf %d %s\n", tile, name)
}

// digestStep writes one program step, and every step it contains, into h.
func digestStep(h hash.Hash64, s graph.Step) {
	switch v := s.(type) {
	case *graph.Sequence:
		fmt.Fprintf(h, "seq %s %d\n", v.Name, len(v.Steps))
		for _, c := range v.Steps {
			digestStep(h, c)
		}
	case graph.Compute:
		fmt.Fprintf(h, "compute %s\n", v.Set.Name)
	case graph.Exchange:
		fmt.Fprintf(h, "exchange %s %s %d\n", v.Name, v.Label, len(v.Moves))
	case graph.While:
		fmt.Fprintf(h, "while %s %d\n", v.Name, v.MaxIter)
		digestStep(h, v.Body)
	case graph.If:
		fmt.Fprintf(h, "if %v\n", v.Else != nil)
		digestStep(h, v.Then)
		if v.Else != nil {
			digestStep(h, v.Else)
		}
	case graph.Repeat:
		fmt.Fprintf(h, "repeat %d\n", v.N)
		digestStep(h, v.Body)
	case graph.HostCall:
		fmt.Fprintf(h, "host %s\n", v.Name)
	default:
		panic(fmt.Sprintf("digestStep: unknown step %T", s))
	}
}

// TestSolverScheduleDigest pins the scheduled program of every solver method,
// with Recovery and ABFT off and on, and of the default MPIR hierarchy: one
// FNV-1a over the buffer allocation order and the step tree (compute set
// names, exchange names, labels and move counts, While caps, branches and
// host-call names). A refactor of the solvers that is meant to leave the
// program alone must leave every row untouched; a change that moves one
// states why and updates the row.
func TestSolverScheduleDigest(t *testing.T) {
	pc := func(typ string) *config.SolverConfig { return &config.SolverConfig{Type: typ} }
	methods := []struct {
		name string
		sc   config.SolverConfig
	}{
		{"cg+jacobi", config.SolverConfig{Type: "cg", Preconditioner: pc("jacobi")}},
		{"cg+chebyshev", config.SolverConfig{Type: "cg", Preconditioner: &config.SolverConfig{Type: "chebyshev", Degree: 3}}},
		{"pbicgstab+ilu0", config.SolverConfig{Type: "pbicgstab", Preconditioner: pc("ilu0")}},
		{"pbicgstab+ilu0+coarse", config.SolverConfig{Type: "pbicgstab", Preconditioner: &config.SolverConfig{Type: "ilu0", Coarse: true}}},
		{"richardson+dilu", config.SolverConfig{Type: "richardson", Preconditioner: pc("dilu")}},
		{"gaussseidel", config.SolverConfig{Type: "gaussseidel", Sweeps: 2}},
	}
	rec := &config.RecoveryConfig{Interval: 5, MaxRestarts: 2, Fallback: &config.SolverConfig{
		Type: "richardson", MaxIterations: 50, Tolerance: 1e-6, Preconditioner: pc("jacobi"),
	}}
	mpirHardened := config.Default()
	mpirHardened.Solver.ABFT, mpirHardened.Recovery = true, rec
	profiles := map[string]config.Config{"mpir-default": config.Default(), "mpir-default+recovery+abft": mpirHardened}
	for _, m := range methods {
		for _, withRec := range []bool{false, true} {
			for _, abft := range []bool{false, true} {
				cfg := config.Config{Solver: m.sc}
				cfg.Solver.MaxIterations, cfg.Solver.Tolerance, cfg.Solver.ABFT = 40, 1e-6, abft
				name := m.name
				if withRec {
					cfg.Recovery = rec
					name += "+recovery"
				}
				if abft {
					name += "+abft"
				}
				profiles[name] = cfg
			}
		}
	}
	want := map[string]uint64{
		"cg+chebyshev":                        0xe6a04952d54bcce2,
		"cg+chebyshev+abft":                   0x2f7bcfafc1b28b98,
		"cg+chebyshev+recovery":               0x65333ca96945403c,
		"cg+chebyshev+recovery+abft":          0xb8e4a667e2ff35de,
		"cg+jacobi":                           0x7e77da0a7c5ebea0,
		"cg+jacobi+abft":                      0x16b6e0c9189f5f86,
		"cg+jacobi+recovery":                  0xca6305325726d831,
		"cg+jacobi+recovery+abft":             0x608e1db1a7b5c6d5,
		"gaussseidel":                         0x873c32315d47d504,
		"gaussseidel+abft":                    0x1181c36835c573fe,
		"gaussseidel+recovery":                0x873c32315d47d504,
		"gaussseidel+recovery+abft":           0x1181c36835c573fe,
		"mpir-default":                        0x9f62e7ae095f2f3c,
		"mpir-default+recovery+abft":          0x967aba8e09700c69,
		"pbicgstab+ilu0":                      0xc5e9367784199001,
		"pbicgstab+ilu0+abft":                 0x9ac94b2c61ee9782,
		"pbicgstab+ilu0+coarse":               0x3e096b94a40b9ae6,
		"pbicgstab+ilu0+coarse+abft":          0xa6db2943f63628e0,
		"pbicgstab+ilu0+coarse+recovery":      0x5e3fb92d9dea68ab,
		"pbicgstab+ilu0+coarse+recovery+abft": 0x3e3c8f94cb9dc823,
		"pbicgstab+ilu0+recovery":             0xd5443e5a0c9f2d6c,
		"pbicgstab+ilu0+recovery+abft":        0x1aaeb23a48e11223,
		"richardson+dilu":                     0xb02b8f71500e2c6e,
		"richardson+dilu+abft":                0x06cdc92721f87e00,
		"richardson+dilu+recovery":            0x3fdc1dea2102d370,
		"richardson+dilu+recovery+abft":       0xb0bc39902c20d95a,
	}

	got := map[string]uint64{}
	m := sparse.Poisson2D(16, 16)
	for name, cfg := range profiles {
		const tiles = 8
		mc := ipu.DefaultConfig()
		mc.TilesPerChip = tiles
		mach, err := ipu.New(mc)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		sess := tensordsl.NewSession(mach)
		sess.Registry = digestRegistry{h}
		sys, err := solver.NewSystem(sess, m, partition.Contiguous(m, tiles))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Solver.ABFT {
			sys.EnableABFT(0)
		}
		scheduleProfile(t, sys, cfg, nil)
		digestStep(h, sess.Program())
		got[name] = h.Sum64()
	}
	if len(got) != len(want) {
		t.Errorf("%d profiles scheduled, %d pinned", len(got), len(want))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || g != w {
			t.Errorf("%s: schedule digest %#016x, want %#016x", name, g, w)
		}
	}
}
