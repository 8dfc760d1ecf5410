package backend

import (
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// simBackend wraps the cycle-accurate engine. Compiling builds one persistent
// engine per executable — pre-sized for the program's largest exchange — and
// every Run resets its accounting in place, so alternating Run/Reset cycles
// match the historical one-engine-per-run behavior bit- and cycle-identically
// while allocating nothing in steady state.
type simBackend struct{}

func (simBackend) Name() string         { return "sim" }
func (simBackend) SupportsFaults() bool { return true }
func (simBackend) SupportsTrace() bool  { return true }

func (simBackend) Compile(prog *graph.Sequence, m *ipu.Machine, rep graph.Report) (Executable, error) {
	eng := graph.NewEngine(m)
	eng.Reserve(rep.MaxExchangeMoves)
	return &simExec{prog: prog, eng: eng}, nil
}

type simExec struct {
	prog *graph.Sequence
	eng  *graph.Engine
}

// Refresh implements Executable. The engine runs the program's compute sets
// (their codelets or, for billed sets, their native kernels) and exchanges
// directly against the session's tensor buffers and the solver's tile value
// blocks, so rewriting those in place is the whole refresh: the next Run
// reads the new values through the same references. Bills and exchange costs
// depend on the pattern alone and survive a refresh.
func (x *simExec) Refresh(rewrite func() error) error {
	return rewrite()
}

func (x *simExec) Run(cfg RunConfig) (RunResult, error) {
	e := x.eng
	e.ResetProfile()
	e.FaultRetries = 0
	e.SetParallelism(cfg.Parallelism)
	e.Injector = cfg.Injector
	e.SetMetrics(cfg.Metrics)
	var tr *graph.Tracer
	if cfg.Trace {
		tr = e.Trace()
	} else {
		e.SetTracer(nil)
	}
	err := e.Run(x.prog)
	res := RunResult{
		Supersteps:   e.Supersteps,
		FaultRetries: e.FaultRetries,
		Tracer:       tr,
	}
	if cfg.CollectProfile {
		res.Profile = e.ProfileShares()
	}
	return res, err
}
