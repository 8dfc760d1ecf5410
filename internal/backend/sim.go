package backend

import (
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// simBackend runs the program's lowered stream with the cycle-accurate
// engine as its accounting. Compiling builds one persistent engine per
// executable, pre-sized for the program's largest exchange; the engine
// lowers the program on the first Run and every Run resets its accounting in
// place, so steady-state runs allocate nothing.
type simBackend struct{}

func (simBackend) Name() string        { return "sim" }
func (simBackend) SupportsTrace() bool { return true }

func (simBackend) Compile(prog *graph.Sequence, m *ipu.Machine, rep graph.Report) (Executable, error) {
	eng := graph.NewEngine(m)
	eng.Reserve(rep.MaxExchangeMoves)
	return &simExec{prog: prog, eng: eng}, nil
}

type simExec struct {
	prog *graph.Sequence
	eng  *graph.Engine
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
		RunStats: graph.RunStats{Supersteps: e.Supersteps, FaultRetries: e.FaultRetries},
		Tracer:   tr,
	}
	if cfg.CollectProfile {
		res.Profile = e.ProfileShares()
	}
	return res, err
}
