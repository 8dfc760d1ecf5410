package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ipusparse/internal/backend"
	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/sparse"
)

// RegisterRequest is the body of POST /v1/systems. The matrix comes from a
// generator spec (gen) or an explicit entry list; config, when present,
// overrides the service's default solver configuration for this system.
type RegisterRequest struct {
	// Gen is a generator spec, e.g. "poisson3d:16" or "stencil27:8".
	Gen string `json:"gen,omitempty"`
	// N and Entries give the matrix explicitly: each entry is [i, j, value]
	// with 0-based row/column indices.
	N       int          `json:"n,omitempty"`
	Entries [][3]float64 `json:"entries,omitempty"`
	// Config overrides the solver hierarchy for this system.
	Config *config.Config `json:"config,omitempty"`
}

// UpdateRequest is the body of PATCH /v1/systems/{id}: a values-only refresh
// of a registered system. The target keeps its sparsity pattern
// — structural changes are rejected with 409 — and its solver configuration.
// Either give the new numbers against the registered structure (diag and/or
// vals, CSR order) or a full matrix spec (gen or n+entries) whose pattern
// must reproduce the registered one.
type UpdateRequest struct {
	// ID, when present, must repeat the path's system ID.
	ID string `json:"id"`
	// Diag is the new diagonal; omitted keeps the registered diagonal.
	Diag []float64 `json:"diag,omitempty"`
	// Vals are the new off-diagonal values in the registered CSR order;
	// omitted keeps the registered values.
	Vals []float64 `json:"vals,omitempty"`
	// Gen/N/Entries give a complete replacement matrix instead (same schema
	// as registration); its sparsity pattern must match the registered one.
	Gen     string       `json:"gen,omitempty"`
	N       int          `json:"n,omitempty"`
	Entries [][3]float64 `json:"entries,omitempty"`
	// Config, when present, must not change anything: an update is values
	// only. It is re-validated against the system's backend, so a config
	// requesting simulator-only features on a native system fails with the
	// same typed 400 a registration would produce.
	Config *config.Config `json:"config,omitempty"`
}

// SolveRequest is the body of POST /v1/systems/{id}/solve. Exactly one of B,
// Batch or RHS selects the right-hand side(s).
type SolveRequest struct {
	B     []float64   `json:"b,omitempty"`
	Batch [][]float64 `json:"batch,omitempty"`
	// RHS is a convenience generator: "ones" solves against b = A*1, so the
	// exact solution is the all-ones vector.
	RHS string `json:"rhs,omitempty"`
	// TimeoutMs overrides the service's default per-job deadline.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// OmitX drops the solution vector from the response (stats only).
	OmitX bool `json:"omitX,omitempty"`
}

// SolveResponse reports one solve.
type SolveResponse struct {
	Converged  bool      `json:"converged"`
	Iterations int       `json:"iterations"`
	RelRes     float64   `json:"relRes"`
	Solver     string    `json:"solver"`
	Restarts   int       `json:"restarts,omitempty"`
	Cycles     uint64    `json:"cycles"`
	Seconds    float64   `json:"seconds"` // simulated device time
	X          []float64 `json:"x,omitempty"`
	Error      string    `json:"error,omitempty"` // per-item batch failure
}

// BatchResponse reports a batched solve.
type BatchResponse struct {
	Results []SolveResponse `json:"results"`
}

// Handler serves the JSON API. Systems are HTTP resources with stable IDs:
//
//	POST   /v1/systems            register a system (generator spec or entries)
//	GET    /v1/systems            list registered systems
//	GET    /v1/systems/{id}       system detail (backend, pattern, generation, tuning)
//	POST   /v1/systems/{id}/solve solve one RHS or a batch
//	PATCH  /v1/systems/{id}       values-only refresh; the ID stays stable, the
//	                              values generation increments
//	DELETE /v1/systems/{id}       deregister (204; persisted as a WAL tombstone)
//	GET    /v1/systems/{id}/tune  cached autotuner decision
//	POST   /v1/systems/{id}/tune  force a re-race now
//	GET    /v1/registry           export registrations (full matrices + configs)
//	POST   /v1/registry           import registrations idempotently
//	POST   /v1/drain              close admission, let in-flight work finish
//	GET    /v1/stats              service counters
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness
//	GET    /readyz                readiness (503 while draining or degraded)
//
// Request bodies are bounded by Options.MaxBodyBytes; oversized requests are
// rejected with 413.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/systems", s.handleRegister)
	mux.HandleFunc("GET /v1/systems", s.handleSystems)
	mux.HandleFunc("GET /v1/systems/{id}", s.handleSystemDetail)
	mux.HandleFunc("POST /v1/systems/{id}/solve", s.handleSolve)
	mux.HandleFunc("PATCH /v1/systems/{id}", s.handlePatchSystem)
	mux.HandleFunc("DELETE /v1/systems/{id}", s.handleDeleteSystem)
	mux.HandleFunc("GET /v1/systems/{id}/tune", s.handleTuneGet)
	mux.HandleFunc("POST /v1/systems/{id}/tune", s.handleTuneForce)
	mux.HandleFunc("GET /v1/registry", s.handleRegistryExport)
	mux.HandleFunc("POST /v1/registry", s.handleRegistryImport)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// handleReady reports whether the service is accepting and completing work:
// 503 once a drain (or Close) shut admission, or when every registered
// system's circuit breaker is open (the service is up but cannot currently
// serve an answer). The router tier keys its routing decisions off the
// status string and code.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.closed || s.draining
	systems := len(s.systems)
	s.mu.Unlock()
	open := s.openBreakers()
	body := map[string]any{
		"status":       "ok",
		"systems":      systems,
		"breakersOpen": open,
		"queueDepth":   len(s.jobs),
	}
	switch {
	case draining:
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case systems > 0 && open >= systems:
		body["status"] = "degraded"
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		writeJSON(w, http.StatusOK, body)
	}
}

// handleDrain closes admission: in-flight and queued jobs complete, new work
// is rejected with 503 and /readyz flips to "draining" so a health-probing
// router routes around this shard. The response reports what is left to
// drain.
func (s *Service) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"status":     "draining",
		"queueDepth": len(s.jobs),
	})
}

// handleRegistryExport serves every registered system as a self-contained
// RegistrationRecord — the unit a router migrates to a replacement shard.
func (s *Service) handleRegistryExport(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"records": s.ExportRegistrations()})
}

// ImportReport is the response of POST /v1/registry.
type ImportReport struct {
	Imported int          `json:"imported"`
	Systems  []SystemInfo `json:"systems"`
}

// handleRegistryImport registers every record of the posted export
// idempotently; a record that fails validation fails the whole import with
// the first error (idempotent retries are safe).
func (s *Service) handleRegistryImport(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Records []RegistrationRecord `json:"records"`
	}
	if err := DecodeBody(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	rep, err := s.ImportRegistrations(r.Context(), req.Records)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// DecodeBody decodes a JSON request body of at most limit bytes into v,
// converting an overrun into the typed ErrBodyTooLarge. It serves the routes
// whose bodies are config objects, the router's included; the float-array
// routes read with ReadBody.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	return bodyError(json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v))
}

// bodyError types what reading or decoding a request body returned.
func bodyError(err error) error {
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &mbe):
		return fmt.Errorf("%w (limit %d bytes)", ErrBodyTooLarge, mbe.Limit)
	}
	return fmt.Errorf("bad request body: %w", err)
}

// bodyPool holds one buffer per in-flight float-array request: the body is
// read into it, decoded in place, and the answer is built in the same bytes.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadBody reads a request body of at most limit bytes into buf, grown once
// when the client declared a length; an overrun is the typed ErrBodyTooLarge.
// The router buffers the bodies it proxies with it too.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer) error {
	buf.Reset()
	if n := r.ContentLength; 0 < n && n <= limit {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to see the EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return bodyError(err)
}

// HTTPStatus maps service errors to status codes. The router maps its own
// two errors first and defers to it for the rest.
func HTTPStatus(err error) int { return httpStatus(err) }

func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrPatternMismatch):
		// A values-only update whose matrix changed structure conflicts with
		// the prepared pipeline's compiled sparsity pattern: the caller must
		// re-register, not retry.
		return http.StatusConflict
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, ErrCircuitOpen),
		errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errEncode):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

// errEncode marks an answer that has no JSON form (a NaN or an infinity in
// it): a typed 500, where writing the header first would send an empty 200.
var errEncode = errors.New("serve: cannot encode response")

// encodeError types what an encoder returned.
func encodeError(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", errEncode, err)
}

// WriteJSON answers v through the service's writer, for the router.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// writeJSON encodes v before it writes the header, so a value that cannot be
// encoded is answered as an error, never as an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := encodeError(json.NewEncoder(&buf).Encode(v)); err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends one complete JSON body with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client that went away is not the handler's error
}

// WriteError answers err as {"error": message} under status, except a
// backend.UnsupportedError, which answers 400 with the typed
// capability-mismatch body: clients can tell "this replica's backend cannot
// do that" apart from a malformed request without parsing the message text,
// and see one contract whether they talk to a shard or the router.
func WriteError(w http.ResponseWriter, status int, err error) {
	var ue *backend.UnsupportedError
	if errors.As(err, &ue) {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error":       ue.Error(),
			"backend":     ue.Backend,
			"unsupported": ue.Feature,
		})
		return
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeError(w http.ResponseWriter, err error) { WriteError(w, httpStatus(err), err) }

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := DecodeBody(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	m, err := BuildMatrix(req)
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := s.Register(r.Context(), m, req.Config)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handlePatchSystem applies a values-only refresh (PATCH /v1/systems/{id}):
// the new numbers are lowered into the cached prepared pipelines in place and
// the system's values generation increments — the ID stays stable. A
// structural change answers 409 Conflict; a config override requesting
// features the system's backend cannot honor answers the same typed 400 as
// registration.
func (s *Service) handlePatchSystem(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req UpdateRequest
	buf := bodyPool.Get().(*bytes.Buffer)
	err := ReadBody(w, r, s.opts.MaxBodyBytes, buf)
	if err == nil {
		err = bodyError(DecodeUpdateRequest(buf.Bytes(), &req))
	}
	bodyPool.Put(buf) // req holds no reference into it
	if err != nil {
		writeError(w, err)
		return
	}
	if req.ID != "" && req.ID != id {
		writeError(w, fmt.Errorf("body id %s does not match path id %s", req.ID, id))
		return
	}
	sys, err := s.lookup(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Config != nil {
		// An update never changes the solver hierarchy. The override is
		// accepted only when it restates the registered configuration; it is
		// still capability-checked first so a simulator-only request fails
		// with the typed 400 body, not the generic message.
		if err := req.Config.Validate(); err != nil {
			writeError(w, err)
			return
		}
		be, err := backend.ByName(sys.backend)
		if err != nil {
			writeError(w, err)
			return
		}
		if err := backend.CheckConfig(be, req.Config); err != nil {
			writeError(w, err)
			return
		}
		if configHash(*req.Config) != configHash(sys.cfg) {
			writeError(w, errors.New("update is values-only: config changes require re-registration"))
			return
		}
	}
	m, err := BuildUpdateMatrix(req, sys.m)
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := s.UpdateSystem(r.Context(), id, m)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSystemDetail serves the full resource view of one system, including
// its cached tuning decision.
func (s *Service) handleSystemDetail(w http.ResponseWriter, r *http.Request) {
	det, err := s.SystemDetail(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, det)
}

// handleDeleteSystem deregisters a system; the deletion is persisted as a WAL
// tombstone before the 204 is written.
func (s *Service) handleDeleteSystem(w http.ResponseWriter, r *http.Request) {
	if err := s.Deregister(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTuneGet serves the system's cached autotuner decision (null when the
// system has never been raced).
func (s *Service) handleTuneGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, err := s.TuneDecision(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "tune": d})
}

// handleTuneForce races the system's candidates again right now and serves
// the fresh decision.
func (s *Service) handleTuneForce(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, err := s.ForceTune(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "tune": d})
}

// BuildUpdateMatrix materializes the matrix an UpdateRequest describes: a
// full replacement spec when given, otherwise the registered structure (cur)
// with the posted diagonal and/or values substituted. Exported so the cluster
// router can fingerprint an update before proxying it to the replica set.
func BuildUpdateMatrix(req UpdateRequest, cur *sparse.Matrix) (*sparse.Matrix, error) {
	if req.Gen != "" || req.Entries != nil {
		if req.Diag != nil || req.Vals != nil {
			return nil, errors.New("give diag/vals or a matrix spec, not both")
		}
		return BuildMatrix(RegisterRequest{Gen: req.Gen, N: req.N, Entries: req.Entries})
	}
	if req.Diag == nil && req.Vals == nil {
		return nil, errors.New("update needs diag, vals or a matrix spec")
	}
	if req.Diag != nil && len(req.Diag) != len(cur.Diag) {
		return nil, fmt.Errorf("diag has %d entries, system has %d rows", len(req.Diag), len(cur.Diag))
	}
	if req.Vals != nil && len(req.Vals) != len(cur.Vals) {
		return nil, fmt.Errorf("vals has %d entries, system stores %d off-diagonals", len(req.Vals), len(cur.Vals))
	}
	m := &sparse.Matrix{
		N:      cur.N,
		Diag:   req.Diag,
		RowPtr: cur.RowPtr,
		Cols:   cur.Cols,
		Vals:   req.Vals,
	}
	if m.Diag == nil {
		m.Diag = append([]float64(nil), cur.Diag...)
	}
	if m.Vals == nil {
		m.Vals = append([]float64(nil), cur.Vals...)
	}
	return m, nil
}

// BuildMatrix materializes the matrix a RegisterRequest describes — exported
// so the cluster router can fingerprint a registration before choosing the
// shards it lands on.
func BuildMatrix(req RegisterRequest) (*sparse.Matrix, error) {
	switch {
	case req.Gen != "" && req.Entries != nil:
		return nil, errors.New("give either gen or entries, not both")
	case req.Gen != "":
		return sparse.GenByName(req.Gen)
	case req.Entries != nil:
		if req.N <= 0 {
			return nil, errors.New("entries require a positive n")
		}
		b := sparse.NewBuilder(req.N)
		for _, e := range req.Entries {
			i, j := int(e[0]), int(e[1])
			if i < 0 || i >= req.N || j < 0 || j >= req.N {
				return nil, fmt.Errorf("entry (%d,%d) outside a %d-row matrix", i, j, req.N)
			}
			b.Set(i, j, e[2])
		}
		return b.Build()
	default:
		return nil, errors.New("need a gen spec or an entry list")
	}
}

func (s *Service) handleSystems(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"systems": s.Systems()})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the telemetry registry in Prometheus text exposition
// format 0.0.4 — every service, pipeline, engine and machine series.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.opts.Telemetry.WritePrometheus(w)
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req SolveRequest
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	err := ReadBody(w, r, s.opts.MaxBodyBytes, buf)
	if err == nil {
		err = bodyError(DecodeSolveRequest(buf.Bytes(), &req))
	}
	if err != nil {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}

	// req holds no reference into buf (b is a slice of its own, which a
	// hedge's losing attempt may still read after this handler returned; the
	// strings are copies), so the answer is built in the body's bytes.
	buf.Reset()
	out, err := s.solveAnswer(ctx, id, &req, buf.AvailableBuffer())
	if err != nil {
		writeError(w, err)
		return
	}
	buf.Write(out) // in place, or the pool keeps the array the answer outgrew into
	writeBody(w, http.StatusOK, buf.Bytes())
}

// solveAnswer runs the solve req describes and appends the encoded answer to
// out.
func (s *Service) solveAnswer(ctx context.Context, id string, req *SolveRequest, out []byte) ([]byte, error) {
	switch {
	case req.Batch != nil:
		items, err := s.SolveBatch(ctx, id, req.Batch)
		if err != nil {
			return nil, err
		}
		resp := BatchResponse{Results: make([]SolveResponse, len(items))}
		for i, it := range items {
			resp.Results[i] = toResponse(it.Result, it.Err, req.OmitX)
		}
		out, err = AppendBatchResponse(out, &resp)
		return out, encodeError(err)
	case req.B != nil || req.RHS != "":
		b := req.B
		if req.RHS != "" {
			if req.RHS != "ones" {
				return nil, fmt.Errorf("unknown rhs generator %q", req.RHS)
			}
			var err error
			if b, err = s.OnesRHS(id); err != nil {
				return nil, err
			}
		}
		res, err := s.Solve(ctx, id, b)
		if err != nil {
			return nil, err
		}
		resp := toResponse(res, nil, req.OmitX)
		out, err = AppendSolveResponse(out, &resp)
		return out, encodeError(err)
	}
	return nil, errors.New("need b, batch or rhs")
}

func toResponse(res *core.Result, err error, omitX bool) SolveResponse {
	if err != nil {
		return SolveResponse{Error: err.Error()}
	}
	sr := SolveResponse{
		Converged:  res.Stats.Converged,
		Iterations: res.Stats.Iterations,
		RelRes:     res.Stats.RelRes,
		Solver:     res.Stats.Solver,
		Restarts:   res.Stats.Restarts,
		Cycles:     res.Machine.TotalCycles,
		Seconds:    res.Machine.Seconds,
	}
	if !omitX {
		sr.X = res.X
	}
	return sr
}

// OnesRHS returns b = A*1 for a registered system, the right-hand side whose
// exact solution is the all-ones vector. The vector is shared by every caller
// of the system's values generation: read it, do not write it.
func (s *Service) OnesRHS(id string) ([]float64, error) {
	sys, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	v := sys.ones
	v.once.Do(func() {
		ones := make([]float64, sys.m.N)
		for i := range ones {
			ones[i] = 1
		}
		v.b = make([]float64, sys.m.N)
		sys.m.MulVec(ones, v.b)
	})
	return v.b, nil
}
