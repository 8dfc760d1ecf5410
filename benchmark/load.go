package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ipusparse/internal/sparse"
)

// recorder accumulates the outcome of every op of one phase. A failed op
// contributes a failure and never a latency sample: only successes reach the
// percentiles.
type recorder struct {
	deadline time.Duration

	mu        sync.Mutex
	lat       [numOpKinds][]float64 // ms, successes only
	attempted [numOpKinds]int
	failed    [numOpKinds]int
	delays    []float64 // ms an open-loop dispatch started after its due time
	// worstDelay names the latest dispatch, for the late_frac warning.
	worstDelay   float64
	worstDelayOp string
	reasons      []string // first few failure reasons, for the report
	lastDone     time.Time
}

func newRecorder() *recorder { return &recorder{deadline: opDeadline} }

func (r *recorder) record(kind opKind, lat time.Duration, done time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted[kind]++
	if done.After(r.lastDone) {
		r.lastDone = done
	}
	if err != nil {
		r.failed[kind]++
		if len(r.reasons) < 5 {
			r.reasons = append(r.reasons, fmt.Sprintf("%s: %v", kind, err))
		}
		return
	}
	r.lat[kind] = append(r.lat[kind], float64(lat)/1e6)
}

func (r *recorder) delay(d time.Duration, o *op, index int) {
	r.mu.Lock()
	ms := float64(d) / 1e6
	r.delays = append(r.delays, ms)
	if ms > r.worstDelay {
		r.worstDelay, r.worstDelayOp = ms, fmt.Sprintf("%s #%d due %.3fs", o.Kind, index, float64(o.DueNs)/1e9)
	}
	r.mu.Unlock()
}

func (r *recorder) totals() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.attempted {
		attempted += r.attempted[k]
		failed += r.failed[k]
	}
	return attempted, failed
}

// newHTTPClient caps the connection pool at conns, the load shape's "one
// connection per client goroutine".
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: opDeadline,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
		},
	}
}

// call sends one request and reads the whole answer into buf.
func call(hc *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// closedReq is one pre-encoded request of a closed-loop workload with the
// check its answer must pass. scratch has room for one vector of the system.
type closedReq struct {
	Path  string
	Body  []byte
	Check func(answer []byte, scratch []float64) error
}

// runClosed drives base with clients goroutines, each sending its next
// request only after the previous answer, cycling through reqs, for dur.
// It returns the instant the phase started.
func runClosed(hc *http.Client, base string, reqs []closedReq, clients, scratchN int, dur time.Duration, rec *recorder, tr *tracer) time.Time {
	var next atomic.Int64
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			scratch := make([]float64, scratchN)
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				t0, t1 := closedOp(hc, base, &reqs[int(i)%len(reqs)], &buf, scratch, rec)
				tr.span("loadgen.request", "solve", c, int(i), t0, t1)
			}
		}(c)
	}
	wg.Wait()
	return start
}

// closedOp sends one closed-loop request, checks its answer and records the
// outcome exactly once. The clock stops when the whole answer has been read,
// before it is checked.
func closedOp(hc *http.Client, base string, rq *closedReq, buf *bytes.Buffer, scratch []float64, rec *recorder) (t0, t1 time.Time) {
	t0 = time.Now()
	status, err := call(hc, "POST", base+rq.Path, rq.Body, buf)
	t1 = time.Now()
	err = checkStatus(status, err, t1.Sub(t0), rec.deadline)
	if err == nil {
		err = rq.Check(buf.Bytes(), scratch)
	}
	rec.record(opSolve, t1.Sub(t0), t1, err)
	return t0, t1
}

// mixState is what the generator knows about the cluster's systems while
// cluster-mixed runs. Each streaming system has an RWMutex: solves and GETs
// read-lock, a PATCH write-locks, so every answer is checked against the
// values generation that was live when it was computed. Waiting for the lock
// is part of the op's latency, which is counted from its due time.
type mixState struct {
	plan *mixPlan
	mu   []sync.RWMutex
	cur  []*sparse.Matrix // current values per system
	gen  []int            // current values generation per system
}

func newMixState(p *mixPlan) *mixState {
	st := &mixState{plan: p, mu: make([]sync.RWMutex, len(p.Systems)), cur: make([]*sparse.Matrix, len(p.Systems)), gen: make([]int, len(p.Systems))}
	for i, s := range p.Systems {
		st.cur[i], st.gen[i] = s.M, 1
	}
	return st
}

// maxInflight bounds the goroutines an open loop may have outstanding. It is
// far above what the frozen rate needs (rate x worst latency is a few ops);
// reaching it means the system fell behind, which late_frac then reports.
const maxInflight = 256

// runOpen sends the plan's ops on their schedule regardless of how the system
// keeps up. zero is the instant of DueNs 0, the start of the measured window;
// warm-up ops are due before it and recorded in warm. Latency is counted from
// the instant an op was due. It returns after every op has finished.
//
// closedClients > 0 turns the same plan into a closed loop for the capacity
// measurement: due times are ignored, that many ops are kept in flight and
// each is timed from its dispatch.
func runOpen(hc *http.Client, base string, st *mixState, zero time.Time, closedClients int, rec, warm *recorder, tr *tracer) {
	ops := st.plan.Ops
	registered := make([]chan bool, len(ops)) // register op -> outcome, for its DELETE
	for i := range ops {
		if ops[i].Kind == opRegister {
			registered[i] = make(chan bool, 1)
		}
	}
	inflight := maxInflight
	if closedClients > 0 {
		inflight = closedClients
	}
	sem := make(chan struct{}, inflight)
	maxN := 0
	for _, s := range st.plan.Systems {
		if s.M.N > maxN {
			maxN = s.M.N
		}
	}
	scratch := sync.Pool{New: func() any { return make([]float64, maxN) }}
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}

	var wg sync.WaitGroup
	for i := range ops {
		o := &ops[i]
		due := zero.Add(time.Duration(o.DueNs))
		if d := time.Until(due); d > 0 && closedClients == 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		if closedClients > 0 {
			due = time.Now()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := rec
			if o.Warmup {
				r = warm
			}
			started := time.Now()
			r.delay(started.Sub(due), o, i)
			buf := bufs.Get().(*bytes.Buffer)
			sc := scratch.Get().([]float64)
			defer bufs.Put(buf)
			defer scratch.Put(sc)

			if o.Kind == opDelete {
				if ok := <-registered[o.After]; !ok {
					return // its register already counted as the failure
				}
			}
			err := st.exec(hc, base, o, buf, sc, due, r.deadline)
			done := time.Now()
			if o.Kind == opRegister {
				registered[i] <- err == nil
			}
			r.record(o.Kind, done.Sub(due), done, err)
			tr.span("loadgen.op", o.Kind.String(), int(o.Kind), i, due, done)
		}(i)
	}
	wg.Wait()
}

// exec performs one scheduled op and checks its answer.
func (st *mixState) exec(hc *http.Client, base string, o *op, buf *bytes.Buffer, scratch []float64, due time.Time, deadline time.Duration) error {
	do := func() error {
		status, err := call(hc, o.Method, base+o.Path, o.Body, buf)
		return checkStatus(status, err, time.Since(due), deadline)
	}
	switch o.Kind {
	case opSolve, opBatch:
		st.mu[o.Sys].RLock()
		defer st.mu[o.Sys].RUnlock()
		if err := do(); err != nil {
			return err
		}
		a, err := decodeSolve(buf.Bytes())
		if err != nil {
			return err
		}
		m := st.cur[o.Sys]
		if o.Kind == opSolve {
			return checkFull(m, o.RHS[0], a, scratch[:m.N])
		}
		if len(a.Results) != len(o.RHS) {
			return fmt.Errorf("batch answered %d results for %d right-hand sides", len(a.Results), len(o.RHS))
		}
		for k := range a.Results {
			if err := checkFull(m, o.RHS[k], &a.Results[k], scratch[:m.N]); err != nil {
				return fmt.Errorf("batch item %d: %w", k, err)
			}
		}
		return nil
	case opPatch:
		st.mu[o.Sys].Lock()
		defer st.mu[o.Sys].Unlock()
		if err := do(); err != nil {
			return err
		}
		a, err := decodeSys(buf.Bytes())
		if err != nil {
			return err
		}
		// The ID stays the registration fingerprint; only the generation moves.
		if a.ID != st.plan.Systems[o.Sys].ID || a.Generation != st.gen[o.Sys]+1 {
			return fmt.Errorf("PATCH answered id %s generation %d, want %s generation %d",
				a.ID, a.Generation, st.plan.Systems[o.Sys].ID, st.gen[o.Sys]+1)
		}
		st.cur[o.Sys], st.gen[o.Sys] = o.NewM, st.gen[o.Sys]+1
		return nil
	case opGet:
		st.mu[o.Sys].RLock()
		defer st.mu[o.Sys].RUnlock()
		if err := do(); err != nil {
			return err
		}
		a, err := decodeSys(buf.Bytes())
		if err != nil {
			return err
		}
		return checkSys(a, st.plan.Systems[o.Sys], st.gen[o.Sys])
	case opRegister:
		if err := do(); err != nil {
			return err
		}
		a, err := decodeSys(buf.Bytes())
		if err != nil {
			return err
		}
		return checkSys(a, o.Dyn, 1)
	case opDelete:
		return do()
	}
	return fmt.Errorf("unknown op kind %d", o.Kind)
}

// span is one in-memory trace record. Parent names the span that caused it
// ("" for a root): for ladder rungs, the next-taller rung's span of the same
// repetition.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cat      string `json:"cat"`
	Track    int    `json:"track"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends; a nil tracer records
// nothing, which is how the end-to-end windows run with tracing off.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, origin: time.Now()} }

func (t *tracer) span(name, cat string, track, rep int, start, end time.Time) {
	t.spanParent(name, cat, track, rep, start, end, "")
}

func (t *tracer) spanParent(name, cat string, track, rep int, start, end time.Time, parent string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Cat: cat, Track: track, Rep: rep,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(), Parent: parent,
	})
	t.mu.Unlock()
}
