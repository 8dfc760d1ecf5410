package config

import (
	"errors"
	"fmt"
)

// The execution backends a program runs on (engine.backend). Both run the
// program's one lowered instruction stream; they differ in the accounting
// over it.
//
//   - BackendSim attaches the cycle-accurate BSP engine: every compute
//     superstep and exchange phase billed through the machine's cost model,
//     device tracing available. It is the research and validation backend
//     and the CLI/bench default ("" and "simulator" spell it too).
//   - BackendNative runs the stream with no accounting: host-speed kernels,
//     fused on fault-free runs, zero allocation per run. It is the serving
//     default.
//
// Both consult a fault injector at the same points in the same order, so a
// seeded campaign replays identically on either. They agree at residual
// level, not bit level.
const (
	BackendSim    = "sim"
	BackendNative = "native"
)

// ResolveBackend returns the canonical name of the backend name spells and
// applies the one capability rule: device tracing (trace) needs the
// simulator. A backend that cannot honor it is a typed *UnsupportedError,
// which the serving tiers answer as a 400 at registration, before any
// pipeline is prepared.
func ResolveBackend(name string, trace bool) (string, error) {
	switch name {
	case "", BackendSim, "simulator":
		return BackendSim, nil
	case BackendNative:
		if trace {
			return "", &UnsupportedError{Backend: BackendNative, Feature: "device tracing"}
		}
		return BackendNative, nil
	}
	return "", fmt.Errorf("config: engine.backend must be sim, simulator or native, got %q", name)
}

// UnsupportedError is the typed rejection of a feature a backend cannot
// honor exactly (device tracing on the native backend).
type UnsupportedError struct {
	Backend string
	Feature string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("backend %s: %s is not supported (use the simulator backend)", e.Backend, e.Feature)
}

// IsUnsupported reports whether err carries an UnsupportedError.
func IsUnsupported(err error) bool {
	var ue *UnsupportedError
	return errors.As(err, &ue)
}
