package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ipusparse/internal/serve"
)

// Handler serves the router's JSON API — the same client-facing surface as a
// single shard, plus the cluster-control endpoints:
//
//	POST   /v1/systems            register a system on its replica set
//	GET    /v1/systems            list systems the router places
//	GET    /v1/systems/{id}       system detail, proxied with failover
//	POST   /v1/systems/{id}/solve route a solve with health-aware failover
//	PATCH  /v1/systems/{id}       values-only refresh across the replica set
//	                              (stable ID, values generation increments)
//	DELETE /v1/systems/{id}       deregister cluster-wide
//	GET    /v1/systems/{id}/tune  cached tune decision, proxied with failover
//	POST   /v1/systems/{id}/tune  force a re-race on every replica
//	GET    /v1/cluster            topology: shard health, placement
//	POST   /v1/cluster/drain      gracefully remove a shard ({"shard": url})
//	POST   /v1/cluster/undrain    return a shard to service
//	GET    /v1/stats              router counters
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness
//	GET    /readyz                readiness (503 when no shard is eligible)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/systems", rt.handleRegister)
	mux.HandleFunc("GET /v1/systems", rt.handleSystems)
	mux.HandleFunc("GET /v1/systems/{id}", rt.handleSystemDetail)
	mux.HandleFunc("POST /v1/systems/{id}/solve", rt.handleSolve)
	mux.HandleFunc("PATCH /v1/systems/{id}", rt.handlePatchSystem)
	mux.HandleFunc("DELETE /v1/systems/{id}", rt.handleDeleteSystem)
	mux.HandleFunc("GET /v1/systems/{id}/tune", rt.handleTuneGet)
	mux.HandleFunc("POST /v1/systems/{id}/tune", rt.handleTuneForce)
	mux.HandleFunc("GET /v1/cluster", rt.handleTopology)
	mux.HandleFunc("POST /v1/cluster/drain", rt.handleDrain)
	mux.HandleFunc("POST /v1/cluster/undrain", rt.handleUndrain)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", rt.handleReady)
	return mux
}

// status maps the router's own errors to status codes and defers to the
// service's mapping for the rest, which a shard would answer the same way.
func status(err error) int {
	switch {
	case errors.Is(err, ErrUnknownSystem):
		return http.StatusNotFound
	case errors.Is(err, ErrNoShards):
		return http.StatusServiceUnavailable
	}
	return serve.HTTPStatus(err)
}

// writeError answers err through the service's writer, so router and shard
// send one error body (the typed capability-mismatch one included).
func writeError(w http.ResponseWriter, err error) {
	serve.WriteError(w, status(err), err)
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req serve.RegisterRequest
	if err := serve.DecodeBody(w, r, rt.opts.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	info, err := rt.Register(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusCreated, info)
}

func (rt *Router) handleSystems(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{"systems": rt.Systems()})
}

// proxyRouted routes one request through the replica set with failover and
// streams the winning shard's answer back verbatim.
func (rt *Router) proxyRouted(w http.ResponseWriter, r *http.Request, id, method, path string, body []byte) {
	resp, err := rt.routeRequest(r.Context(), id, method, path, body)
	if err != nil {
		writeError(w, err) // ErrNoShards, or the client's own cancellation
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	if n := resp.Header.Get("Content-Length"); n != "" {
		w.Header().Set("Content-Length", n) // or the client gets the answer re-chunked
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleSolve proxies one solve with failover: the body is buffered once so
// a failed attempt can replay it against the next replica.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var body bytes.Buffer
	if err := serve.ReadBody(w, r, rt.opts.MaxBodyBytes, &body); err != nil {
		writeError(w, err)
		return
	}
	rt.proxyRouted(w, r, id, http.MethodPost, "/v1/systems/"+id+"/solve", body.Bytes())
}

// handleSystemDetail proxies the full resource view of one system — including
// its cached tune decision — from the first healthy replica.
func (rt *Router) handleSystemDetail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.proxyRouted(w, r, id, http.MethodGet, "/v1/systems/"+id, nil)
}

// handleTuneGet proxies the cached tune decision from the first healthy
// replica.
func (rt *Router) handleTuneGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.proxyRouted(w, r, id, http.MethodGet, "/v1/systems/"+id+"/tune", nil)
}

// handleTuneForce re-races the system on every replica and answers with the
// freshest decision, which the router's record now carries.
func (rt *Router) handleTuneForce(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, err := rt.TuneForce(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"id": id, "tune": d})
}

// handleDeleteSystem deregisters a system cluster-wide.
func (rt *Router) handleDeleteSystem(w http.ResponseWriter, r *http.Request) {
	if err := rt.Delete(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePatchSystem applies a values-only refresh (PATCH /v1/systems/{id}) to
// every shard of the target's replica set. Pattern conflicts answer 409
// before any shard traffic; an unknown target answers 404.
func (rt *Router) handlePatchSystem(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req serve.UpdateRequest
	var body bytes.Buffer
	err := serve.ReadBody(w, r, rt.opts.MaxBodyBytes, &body)
	if err == nil {
		err = serve.DecodeUpdateRequest(body.Bytes(), &req)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if req.ID != "" && req.ID != id {
		writeError(w, fmt.Errorf("body id %s does not match path id %s", req.ID, id))
		return
	}
	req.ID = id
	info, err := rt.update(r.Context(), req, body.Bytes())
	if err != nil {
		writeError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, info)
}

// Topology is the GET /v1/cluster response: where everything is and how
// healthy it looks.
type Topology struct {
	Replicas int                    `json:"replicas"`
	Shards   map[string]ShardStatus `json:"shards"`
	Systems  map[string][]string    `json:"systems"` // system ID -> current replica set
}

func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	topo := Topology{
		Replicas: rt.opts.Replicas,
		Shards:   rt.Stats().Shards,
		Systems:  map[string][]string{},
	}
	for _, info := range rt.Systems() {
		var names []string
		for _, sh := range rt.replicaSet(info.ID) {
			names = append(names, sh.name)
		}
		topo.Systems[info.ID] = names
	}
	serve.WriteJSON(w, http.StatusOK, topo)
}

// shardRequest is the body of POST /v1/cluster/drain and /undrain.
type shardRequest struct {
	Shard string `json:"shard"`
}

func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if err := serve.DecodeBody(w, r, rt.opts.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	rep, err := rt.DrainShard(r.Context(), req.Shard)
	if err != nil {
		writeError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, rep)
}

func (rt *Router) handleUndrain(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if err := serve.DecodeBody(w, r, rt.opts.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := rt.UndrainShard(req.Shard); err != nil {
		writeError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.tel.WritePrometheus(w)
}

// handleReady reports 503 only when no shard is eligible to serve — a single
// live replica keeps the cluster ready.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	st := rt.Stats()
	eligible := 0
	for _, s := range st.Shards {
		if !s.Draining && s.Health != "down" && s.Health != "draining" {
			eligible++
		}
	}
	body := map[string]any{"status": "ok", "shards": len(st.Shards), "eligible": eligible}
	if eligible == 0 {
		body["status"] = "unavailable"
		serve.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	serve.WriteJSON(w, http.StatusOK, body)
}
