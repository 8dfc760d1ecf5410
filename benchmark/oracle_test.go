package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ipusparse/internal/sparse"
)

// knownSystem is a small system with a right-hand side whose exact solution
// is known, so a fake server can answer correctly without a solver.
func knownSystem(t *testing.T) (s *system, x0, b []float64) {
	t.Helper()
	s, err := genSystem("poisson3d:4", nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 = make([]float64, s.M.N)
	for i := range x0 {
		x0[i] = 1 + float64(i%7)/10
	}
	b = make([]float64, s.M.N)
	s.M.MulVec(x0, b)
	return s, x0, b
}

func answerJSON(t *testing.T, a solveAnswer) []byte {
	t.Helper()
	out, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Each broken answer must count exactly once as a failure and must never
// contribute a latency sample; the good answer is the control.
func TestClosedLoopFailureAccounting(t *testing.T) {
	s, x0, b := knownSystem(t)
	bad := append([]float64(nil), x0...)
	bad[3] += 0.5
	good := solveAnswer{Converged: true, Iterations: 12, RelRes: 1e-7, X: x0}

	cases := []struct {
		name    string
		status  int
		answer  solveAnswer
		delay   time.Duration
		lean    bool
		wantErr bool
	}{
		{name: "good full answer", status: 200, answer: good},
		{name: "good lean answer", status: 200, answer: solveAnswer{Converged: true, Iterations: 12, RelRes: 1e-7}, lean: true},
		{name: "perturbed x", status: 200, answer: solveAnswer{Converged: true, Iterations: 12, RelRes: 1e-7, X: bad}, wantErr: true},
		{name: "converged false", status: 200, answer: solveAnswer{Converged: false, Iterations: 12, RelRes: 1e-2, X: x0}, wantErr: true},
		{name: "503", status: 503, answer: solveAnswer{Error: "draining"}, wantErr: true},
		{name: "wrong iteration count", status: 200, answer: solveAnswer{Converged: true, Iterations: 13, RelRes: 1e-7}, lean: true, wantErr: true},
		{name: "lean residual too large", status: 200, answer: solveAnswer{Converged: true, Iterations: 12, RelRes: 1e-3}, lean: true, wantErr: true},
		{name: "answer past the deadline", status: 200, answer: good, delay: 60 * time.Millisecond, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			payload := answerJSON(t, tc.answer)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				time.Sleep(tc.delay)
				w.WriteHeader(tc.status)
				_, _ = w.Write(payload)
			}))
			defer srv.Close()

			in := &serveInputs{spec: serveSpec{Lean: tc.lean}, sys: s, rhs: [][]float64{b}, body: [][]byte{solveBody(b)}}
			reqs := in.requests(leanExpect{Iterations: 12, Tolerance: 1e-6})
			rec := newRecorder()
			rec.deadline = 40 * time.Millisecond
			var buf bytes.Buffer
			closedOp(srv.Client(), srv.URL, &reqs[0], &buf, make([]float64, s.M.N), rec)

			attempted, failed := rec.totals()
			wantFailed := 0
			if tc.wantErr {
				wantFailed = 1
			}
			if attempted != 1 || failed != wantFailed || hits.Load() != 1 {
				t.Fatalf("attempted %d failed %d hits %d, want 1, %d, 1 (%v)", attempted, failed, hits.Load(), wantFailed, rec.reasons)
			}
			if samples := len(rec.lat[opSolve]); samples != 1-wantFailed {
				t.Fatalf("%d latency samples for a run with %d failures", samples, wantFailed)
			}
		})
	}
}

// fakeCluster answers every route of the cluster surface from the generator's
// own matrices. breakKind makes one kind of op misbehave.
type fakeCluster struct {
	t         *testing.T
	sys       *system
	x0        []float64
	gen       atomic.Int64
	breakKind string
}

func (f *fakeCluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	write := func(status int, v any) {
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
	}
	info := func(s *system, gen int) sysAnswer {
		return sysAnswer{ID: s.ID, N: s.M.N, NNZ: s.M.NNZ(), Generation: gen}
	}
	switch {
	case r.Method == "POST" && r.URL.Path == "/v1/systems":
		var req struct {
			N       int          `json:"n"`
			Entries [][3]float64 `json:"entries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			write(400, map[string]string{"error": err.Error()})
			return
		}
		bld := sparse.NewBuilder(req.N)
		for _, e := range req.Entries {
			bld.Set(int(e[0]), int(e[1]), e[2])
		}
		m, err := bld.Build()
		if err != nil {
			write(400, map[string]string{"error": err.Error()})
			return
		}
		if f.breakKind == "register" {
			write(201, sysAnswer{ID: "m0000000000000000", N: m.N, NNZ: m.NNZ(), Generation: 1})
			return
		}
		write(201, sysAnswer{ID: m.FingerprintString(), N: m.N, NNZ: m.NNZ(), Generation: 1})
	case r.Method == "POST": // solve or batch
		var req struct {
			B     []float64   `json:"b"`
			Batch [][]float64 `json:"batch"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			write(400, map[string]string{"error": err.Error()})
			return
		}
		one := solveAnswer{Converged: true, Iterations: 9, RelRes: 1e-7, X: f.x0}
		if req.Batch == nil {
			if f.breakKind == "solve" {
				one.Converged = false
			}
			write(200, one)
			return
		}
		out := solveAnswer{}
		for range req.Batch {
			out.Results = append(out.Results, one)
		}
		if f.breakKind == "batch" {
			bad := append([]float64(nil), f.x0...)
			bad[0] -= 1
			out.Results[len(out.Results)-1].X = bad
		}
		write(200, out)
	case r.Method == "PATCH":
		if f.breakKind == "patch" {
			write(409, map[string]string{"error": "pattern mismatch"})
			return
		}
		write(200, info(f.sys, int(f.gen.Add(1))))
	case r.Method == "GET":
		gen := int(f.gen.Load())
		if f.breakKind == "get" {
			gen += 5
		}
		write(200, info(f.sys, gen))
	case r.Method == "DELETE":
		if f.breakKind == "delete" {
			write(404, map[string]string{"error": "unknown system"})
			return
		}
		w.WriteHeader(204)
	default:
		write(405, nil)
	}
}

// tinyPlan is one op of every kind against one system whose every right-hand
// side has the known solution x0 (a PATCH that keeps the values keeps it so).
func tinyPlan(s *system, b []float64) *mixPlan {
	dyn := sparse.Poisson3D(3, 4, 5)
	dsys := &system{M: dyn, ID: dyn.FingerprintString()}
	batch := make([][]float64, batchSize)
	for i := range batch {
		batch[i] = b
	}
	path := "/v1/systems/" + s.ID
	ms := func(n int64) int64 { return n * 1e6 }
	return &mixPlan{
		Systems: []*system{s}, NumStatic: 0, // the one system takes PATCHes, so it is a streaming one
		Ops: []op{
			{Kind: opSolve, DueNs: ms(0), Method: "POST", Path: path + "/solve", Body: solveBody(b), RHS: [][]float64{b}, After: -1},
			{Kind: opBatch, DueNs: ms(1), Method: "POST", Path: path + "/solve", Body: batchBody(batch), RHS: batch, After: -1},
			{Kind: opPatch, DueNs: ms(2), Method: "PATCH", Path: path, Body: patchBody(s.M), NewM: s.M, After: -1},
			{Kind: opRegister, DueNs: ms(3), Method: "POST", Path: "/v1/systems", Body: entriesBody(dyn), Dyn: dsys, After: -1},
			{Kind: opGet, DueNs: ms(40), Method: "GET", Path: path, After: -1},
			{Kind: opDelete, DueNs: ms(41), Method: "DELETE", Path: "/v1/systems/" + dsys.ID, Dyn: dsys, After: 3},
		},
	}
}

func TestOpenLoopFailureAccounting(t *testing.T) {
	s, x0, b := knownSystem(t)
	for _, broken := range []string{"", "solve", "batch", "patch", "register", "get", "delete"} {
		t.Run("broken="+broken, func(t *testing.T) {
			f := &fakeCluster{t: t, sys: s, x0: x0, breakKind: broken}
			f.gen.Store(1)
			srv := httptest.NewServer(f)
			defer srv.Close()

			st := newMixState(tinyPlan(s, b))
			rec, warm := newRecorder(), newRecorder()
			runOpen(srv.Client(), srv.URL, st, time.Now(), 0, rec, warm, nil)

			for k := opKind(0); k < numOpKinds; k++ {
				wantFailed, wantAttempted := 0, 1
				if k.String() == broken {
					wantFailed = 1
				}
				if broken == "register" && k == opDelete {
					// The DELETE of a system that never registered is not sent:
					// the failure was already counted once, on the register.
					wantAttempted = 0
				}
				if rec.attempted[k] != wantAttempted || rec.failed[k] != wantFailed {
					t.Errorf("%s: attempted %d failed %d, want %d and %d (%v)", k, rec.attempted[k], rec.failed[k], wantAttempted, wantFailed, rec.reasons)
				}
				if got, want := len(rec.lat[k]), wantAttempted-wantFailed; got != want {
					t.Errorf("%s: %d latency samples, want %d", k, got, want)
				}
			}
			if a, _ := warm.totals(); a != 0 {
				t.Errorf("%d ops landed in the warm-up recorder", a)
			}
			if broken == "" && st.gen[0] != 2 {
				t.Errorf("generation %d after one PATCH, want 2", st.gen[0])
			}
		})
	}
}

func TestOpenLoopLatencyCountsFromTheDueTime(t *testing.T) {
	s, x0, b := knownSystem(t)
	f := &fakeCluster{t: t, sys: s, x0: x0}
	f.gen.Store(1)
	srv := httptest.NewServer(f)
	defer srv.Close()
	plan := tinyPlan(s, b)
	plan.Ops = plan.Ops[:1]
	rec := newRecorder()
	// The op was due 80 ms ago: the generator is late, and the op's latency
	// must include that wait.
	runOpen(srv.Client(), srv.URL, newMixState(plan), time.Now().Add(-80*time.Millisecond), 0, rec, newRecorder(), nil)
	if len(rec.lat[opSolve]) != 1 || rec.lat[opSolve][0] < 80 {
		t.Fatalf("latency %v ms, want at least the 80 ms the op was overdue", rec.lat[opSolve])
	}
	if frac, p99 := lateness(rec.delays); frac != 1 || p99 < 80 {
		t.Fatalf("late_frac %v late_p99 %v for one op dispatched 80 ms late", frac, p99)
	}
}
