package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
)

var cgJacobi = json.RawMessage(`{"solver":{"type":"cg","maxIterations":2000,"tolerance":1e-06,"preconditioner":{"type":"jacobi"}}}`)

// planDigest covers everything the plan would put on the wire and when.
func planDigest(t *testing.T, p *mixPlan) [32]byte {
	t.Helper()
	h := sha256.New()
	for _, s := range p.Systems {
		h.Write(s.registerBody())
	}
	for _, o := range p.Ops {
		_ = binary.Write(h, binary.LittleEndian, o.DueNs)
		_ = binary.Write(h, binary.LittleEndian, int64(o.After))
		h.Write([]byte(o.Method + " " + o.Path + "\n"))
		h.Write(o.Body)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed int64) *mixPlan {
		p, err := buildMixPlan(seed, clusterRate, 30, 200, cgJacobi)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := build(7), build(7), build(8)
	if planDigest(t, a) != planDigest(t, b) {
		t.Error("the same seed gave two different schedules")
	}
	if planDigest(t, a) == planDigest(t, c) {
		t.Error("two seeds gave byte-identical schedules")
	}
}

func TestWindowMixIsExactForEverySeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p, err := buildMixPlan(seed, clusterRate, 75, 300, cgJacobi)
		if err != nil {
			t.Fatal(err)
		}
		var got [numOpKinds]int
		streaming := 0
		prevDue := int64(-1 << 62)
		for i, o := range p.Ops {
			if o.DueNs < prevDue {
				t.Fatalf("seed %d: op %d is due before its predecessor", seed, i)
			}
			prevDue = o.DueNs
			if o.Kind == opDelete {
				r := p.Ops[o.After]
				if r.Kind != opRegister || r.Dyn != o.Dyn || o.After >= i {
					t.Fatalf("seed %d: DELETE %d does not follow its own register", seed, i)
				}
			}
			if o.Warmup != (o.DueNs < 0) {
				t.Fatalf("seed %d: op %d warm-up flag disagrees with its due time", seed, i)
			}
			if o.Warmup || o.Kind == opDelete {
				continue
			}
			got[o.Kind]++
			if o.Kind == opSolve && o.Sys >= p.NumStatic {
				streaming++
			}
		}
		for k, perBlock := range mixBlock {
			if want := 3 * perBlock; got[k] != want {
				t.Errorf("seed %d: %d %s ops in a 300-op window, want %d", seed, got[k], opKind(k), want)
			}
		}
		if streaming != 3*streamSolvesPerBlock {
			t.Errorf("seed %d: %d solves on streaming systems, want %d", seed, streaming, 3*streamSolvesPerBlock)
		}
		shapes := map[string]bool{}
		for _, o := range p.Ops {
			if o.Kind == opRegister {
				if shapes[o.Dyn.M.PatternFingerprintString()] {
					t.Errorf("seed %d: a register shape repeats", seed)
				}
				shapes[o.Dyn.M.PatternFingerprintString()] = true
			}
		}
	}
}

func TestServeInputsAreAFunctionOfTheSeed(t *testing.T) {
	bodies := func(seed int64) []byte {
		c := &runCtx{root: "..", seed: seed}
		in, err := c.serveInputs(wServeWire)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(in.body, nil)
	}
	if !bytes.Equal(bodies(5), bodies(5)) {
		t.Error("the same seed gave two different sets of request bodies")
	}
	if bytes.Equal(bodies(5), bodies(6)) {
		t.Error("two seeds gave identical request bodies")
	}
}

// The daemons must only ever see generated inputs: neither their flags nor
// any request may name the seed or the workload.
func TestRequestsCarryNoSeedOrWorkloadName(t *testing.T) {
	c := &runCtx{root: "..", seed: 424242}
	banned := append(workloadNames(), "seed", "424242", "workload")
	check := func(what, s string) {
		t.Helper()
		for _, b := range banned {
			if strings.Contains(strings.ToLower(s), b) {
				t.Errorf("%s contains %q", what, b)
			}
		}
	}
	for _, args := range [][]string{c.servedArgs(), c.shardArgs("/x/state"), c.routerArgs([]string{"http://127.0.0.1:1"})} {
		for _, a := range args {
			// The config path lies under benchmark/, which is not a workload name.
			check("daemon flag "+a, strings.TrimPrefix(a, c.config("")))
		}
	}
	p, err := buildMixPlan(c.seed, clusterRate, 10, 100, cgJacobi)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Systems {
		check("register body", string(s.registerBody()))
	}
	for i, o := range p.Ops {
		check("path", o.Path)
		if o.Kind == opGet || o.Kind == opDelete {
			if o.Body != nil {
				t.Errorf("op %d: %s carries a body", i, o.Kind)
			}
			continue
		}
		// Bodies are numbers; a digit run equal to the seed would be chance,
		// so only the words are looked for in them.
		for _, b := range append(workloadNames(), "seed", "workload") {
			if bytes.Contains(o.Body, []byte(b)) {
				t.Errorf("op %d body contains %q", i, b)
			}
		}
	}
	for _, w := range []string{wServeCG, wServeMPIR, wServeWire} {
		in, err := c.serveInputs(w)
		if err != nil {
			t.Fatal(err)
		}
		check(w+" register body", string(in.sys.registerBody()))
		check(w+" path", in.solvePath())
		check(w+" first body", string(in.body[0][:min(len(in.body[0]), 64)]))
	}
}

func TestGeneratedMatricesMatchTheirBodies(t *testing.T) {
	p, err := buildMixPlan(3, clusterRate, 0, 100, cgJacobi)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range p.Ops {
		switch o.Kind {
		case opPatch:
			base := p.Systems[o.Sys].M
			if o.NewM.PatternFingerprint() != base.PatternFingerprint() {
				t.Fatal("a PATCH changes the sparsity pattern")
			}
			if o.NewM.Fingerprint() == base.Fingerprint() {
				t.Fatal("a PATCH carries the registered values")
			}
			if !o.NewM.IsSymmetric(0) {
				t.Fatal("a PATCH breaks symmetry, which CG needs")
			}
		case opRegister:
			var req struct {
				N       int          `json:"n"`
				Entries [][3]float64 `json:"entries"`
			}
			if err := json.Unmarshal(o.Body, &req); err != nil {
				t.Fatal(err)
			}
			if req.N != o.Dyn.M.N || len(req.Entries) != o.Dyn.M.NNZ() {
				t.Fatalf("register body holds n=%d, %d entries; the matrix has n=%d nnz=%d",
					req.N, len(req.Entries), o.Dyn.M.N, o.Dyn.M.NNZ())
			}
		}
	}
}
