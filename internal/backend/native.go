package backend

import (
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// nativeBackend runs the program's lowered stream with no accounting (see
// graph.Stream): zero allocation per run, fused kernels on fault-free runs.
type nativeBackend struct{}

func (nativeBackend) Name() string        { return "native" }
func (nativeBackend) SupportsTrace() bool { return false }

func (nativeBackend) Compile(prog *graph.Sequence, m *ipu.Machine, rep graph.Report) (Executable, error) {
	s, err := graph.Lower(prog, m.NumTiles())
	if err != nil {
		return nil, err
	}
	return &nativeExec{s}, nil
}

// nativeExec is a lowered stream; Fusion reports what its fusion pass did.
type nativeExec struct{ *graph.Stream }

func (x *nativeExec) Run(cfg RunConfig) (RunResult, error) {
	if cfg.Trace {
		return RunResult{}, &UnsupportedError{Backend: "native", Feature: "device tracing"}
	}
	st, err := x.Stream.Run(cfg.Injector)
	return RunResult{RunStats: st}, err
}
