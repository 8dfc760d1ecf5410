package config

import (
	"errors"
	"strings"
	"testing"

	"ipusparse/internal/ipu"
)

func TestParseRoundTrip(t *testing.T) {
	src := `{
	  "solver": {
	    "type": "pbicgstab",
	    "maxIterations": 500,
	    "tolerance": 1e-9,
	    "preconditioner": { "type": "ilu0" }
	  },
	  "mpir": { "extended": "dw", "innerIterations": 100, "maxOuter": 50, "tolerance": 1e-13 }
	}`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Solver.Type != "pbicgstab" || c.Solver.MaxIterations != 500 {
		t.Errorf("solver parsed wrong: %+v", c.Solver)
	}
	if c.Solver.Preconditioner == nil || c.Solver.Preconditioner.Type != "ilu0" {
		t.Error("preconditioner missing")
	}
	if c.MPIR == nil || c.MPIR.Extended != "dw" || c.MPIR.InnerIterations != 100 {
		t.Errorf("mpir parsed wrong: %+v", c.MPIR)
	}
}

func TestParseNested(t *testing.T) {
	src := `{
	  "solver": {
	    "type": "pbicgstab", "maxIterations": 100,
	    "preconditioner": {
	      "type": "richardson", "iterations": 3,
	      "preconditioner": { "type": "jacobi" }
	    }
	  }
	}`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Solver.Preconditioner.Preconditioner.Type != "jacobi" {
		t.Error("nested preconditioner lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad type":       `{"solver": {"type": "magic"}}`,
		"unknown field":  `{"solver": {"type": "pbicgstab", "wat": 1}}`,
		"bad mpir ext":   `{"solver": {"type": "pbicgstab"}, "mpir": {"extended": "fp8", "innerIterations": 1, "maxOuter": 1}}`,
		"bad mpir inner": `{"solver": {"type": "pbicgstab"}, "mpir": {"extended": "dw", "innerIterations": 0, "maxOuter": 1}}`,
		"neg tol":        `{"solver": {"type": "pbicgstab", "tolerance": -1}}`,
		"neg mpir tol":   `{"solver": {"type": "pbicgstab"}, "mpir": {"extended": "dw", "innerIterations": 1, "maxOuter": 1, "tolerance": -1}}`,
		"pre on jacobi":  `{"solver": {"type": "jacobi", "preconditioner": {"type": "ilu0"}}}`,
		"not json":       `hello`,
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// MPIR refines with a pbicgstab, cg or richardson inner solve; any other
	// type is an error that names it, not a silent PBiCGStab.
	for _, typ := range []string{"jacobi", "ilu0", "dilu", "gaussseidel", "chebyshev", "none"} {
		src := `{"solver": {"type": "` + typ + `"}, "mpir": {"extended": "dw", "innerIterations": 1, "maxOuter": 1}}`
		if _, err := Parse(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), `"`+typ+`"`) {
			t.Errorf("mpir over %s: got %v, want an error naming the type", typ, err)
		}
	}
	for _, typ := range []string{"pbicgstab", "bicgstab", "cg", "richardson"} {
		src := `{"solver": {"type": "` + typ + `"}, "mpir": {"extended": "dw", "innerIterations": 1, "maxOuter": 1}}`
		if _, err := Parse(strings.NewReader(src)); err != nil {
			t.Errorf("mpir over %s: %v", typ, err)
		}
	}
	// A recovery block hardens pbicgstab, cg and richardson (and, under mpir,
	// their correction solves); over any other solver it is an error that
	// names the type, not a campaign run with no checkpoint or restart.
	for _, typ := range []string{"gaussseidel", "jacobi", "ilu0", "dilu"} {
		src := `{"solver": {"type": "` + typ + `"}, "recovery": {"interval": 5}}`
		if _, err := Parse(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), `"`+typ+`"`) {
			t.Errorf("recovery over %s: got %v, want an error naming the type", typ, err)
		}
	}
	for _, src := range []string{
		`{"solver": {"type": "cg"}, "recovery": {"interval": 5}}`,
		`{"solver": {"type": "richardson"}, "recovery": {}}`,
		`{"solver": {"type": "pbicgstab", "preconditioner": {"type": "gaussseidel"}}, "recovery": {}}`,
		`{"solver": {"type": "bicgstab"}, "mpir": {"extended": "dw", "innerIterations": 1, "maxOuter": 1}, "recovery": {}}`,
	} {
		if _, err := Parse(strings.NewReader(src)); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if Default().MPIR.ExtScalar() != ipu.DW {
		t.Error("default extended type should be double-word")
	}
}

func TestExtScalar(t *testing.T) {
	cases := map[string]ipu.Scalar{"dw": ipu.DW, "dp": ipu.F64, "none": ipu.F32}
	for ext, want := range cases {
		mc := &MPIRConfig{Extended: ext}
		if got := mc.ExtScalar(); got != want {
			t.Errorf("%s -> %v, want %v", ext, got, want)
		}
	}
}

func TestParseChebyshev(t *testing.T) {
	src := `{
	  "solver": {
	    "type": "cg", "maxIterations": 200, "tolerance": 1e-6,
	    "preconditioner": { "type": "chebyshev", "degree": 4 }
	  }
	}`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Solver.Preconditioner.Degree != 4 {
		t.Error("degree lost")
	}
}

func TestParseCoarseFlag(t *testing.T) {
	src := `{
	  "solver": {
	    "type": "pbicgstab", "maxIterations": 200,
	    "preconditioner": { "type": "ilu0", "coarse": true }
	  }
	}`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Solver.Preconditioner.Coarse {
		t.Error("coarse flag lost")
	}
}

func TestParseFaultAndRecovery(t *testing.T) {
	src := `{
	  "solver": {
	    "type": "pbicgstab", "maxIterations": 500, "tolerance": 1e-9,
	    "preconditioner": { "type": "ilu0" }
	  },
	  "fault": { "seed": 42, "rate": 0.001, "kinds": ["bit-flip", "exchange-corrupt"], "maxFaults": 10 },
	  "recovery": { "interval": 5, "maxRestarts": 4,
	    "fallback": { "type": "richardson", "maxIterations": 2000, "tolerance": 1e-9,
	      "preconditioner": { "type": "ilu0" } } }
	}`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fault == nil || c.Fault.Seed != 42 || c.Fault.Rate != 0.001 {
		t.Fatalf("fault parsed wrong: %+v", c.Fault)
	}
	p := c.Fault.Plan()
	if p.Seed != 42 || p.Rate != 0.001 || len(p.Kinds) != 2 || p.MaxFaults != 10 {
		t.Errorf("plan conversion wrong: %+v", p)
	}
	if c.Recovery == nil || c.Recovery.Interval != 5 || c.Recovery.MaxRestarts != 4 {
		t.Fatalf("recovery parsed wrong: %+v", c.Recovery)
	}
	if c.Recovery.Fallback == nil || c.Recovery.Fallback.Type != "richardson" {
		t.Error("fallback lost")
	}
}

func TestFaultRecoveryValidation(t *testing.T) {
	cases := map[string]string{
		"bad rate":     `{"solver": {"type": "cg"}, "fault": {"seed": 1, "rate": 2}}`,
		"neg rate":     `{"solver": {"type": "cg"}, "fault": {"seed": 1, "rate": -0.5}}`,
		"bad kind":     `{"solver": {"type": "cg"}, "fault": {"seed": 1, "rate": 0.1, "kinds": ["meteor-strike"]}}`,
		"neg budget":   `{"solver": {"type": "cg"}, "fault": {"seed": 1, "rate": 0.1, "retryBudget": -1}}`,
		"neg interval": `{"solver": {"type": "cg"}, "recovery": {"interval": -1}}`,
		"neg restarts": `{"solver": {"type": "cg"}, "recovery": {"maxRestarts": -2}}`,
		"bad fallback": `{"solver": {"type": "cg"}, "recovery": {"fallback": {"type": "chebyshev"}}}`,
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseEngineBlock(t *testing.T) {
	src := `{
	  "solver": { "type": "cg", "maxIterations": 100 },
	  "engine": { "parallelism": 4 }
	}`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine == nil || c.Engine.Parallelism != 4 {
		t.Fatalf("engine block parsed wrong: %+v", c.Engine)
	}
	if c.EngineParallelism() != 4 {
		t.Fatalf("EngineParallelism() = %d, want 4", c.EngineParallelism())
	}
}

func TestEngineParallelismDefaults(t *testing.T) {
	if got := Default().EngineParallelism(); got != 0 {
		t.Fatalf("default EngineParallelism() = %d, want 0 (automatic)", got)
	}
}

func TestEngineValidation(t *testing.T) {
	src := `{
	  "solver": { "type": "cg" },
	  "engine": { "parallelism": -2 }
	}`
	if _, err := Parse(strings.NewReader(src)); err == nil {
		t.Fatal("negative engine.parallelism accepted")
	}
	c := Default()
	c.Engine = &EngineConfig{Parallelism: 0}
	if err := c.Validate(); err != nil {
		t.Fatalf("parallelism 0 (automatic) rejected: %v", err)
	}
}

// TestResolveBackendNames is the table of backend spellings: every name
// canonicalizes and an unknown one is rejected with a plain error, by
// ResolveBackend and by Validate.
func TestResolveBackendNames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace bool
		want  string
	}{
		{"", false, "sim"},
		{"sim", false, "sim"},
		{"simulator", false, "sim"},
		{"native", false, "native"},
		{"", true, "sim"},
		{"simulator", true, "sim"},
	} {
		got, err := ResolveBackend(tc.name, tc.trace)
		if err != nil || got != tc.want {
			t.Errorf("ResolveBackend(%q, %v) = %q, %v; want %q", tc.name, tc.trace, got, err, tc.want)
		}
	}
	for _, trace := range []bool{false, true} {
		got, err := ResolveBackend("fpga", trace)
		if err == nil || IsUnsupported(err) {
			t.Errorf("ResolveBackend(fpga, %v) = %q, %v; want an unknown-backend error", trace, got, err)
		}
	}
	c := Default()
	c.Engine = &EngineConfig{Backend: "fpga"}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown engine.backend")
	}
}

// TestResolveBackendRejectsTraceOnNative is the one capability rule: device
// tracing on native is a typed UnsupportedError naming the backend and the
// feature, not a silent no-op.
func TestResolveBackendRejectsTraceOnNative(t *testing.T) {
	got, err := ResolveBackend("native", true)
	var ue *UnsupportedError
	if !IsUnsupported(err) || !errors.As(err, &ue) || ue.Backend != "native" || ue.Feature != "device tracing" {
		t.Fatalf("ResolveBackend(native, true) = %q, %#v; want a typed UnsupportedError", got, err)
	}
	if IsUnsupported(errors.New("other")) {
		t.Fatal("IsUnsupported matched an unrelated error")
	}
}
