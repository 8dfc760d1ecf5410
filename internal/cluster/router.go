package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"ipusparse/internal/breaker"
	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/serve"
	"ipusparse/internal/telemetry"
	"ipusparse/internal/tune"
)

// Options configures a Router. The zero value of every field has a sensible
// default; Shards is the only required one.
type Options struct {
	// Shards are the backend base URLs, e.g. "http://127.0.0.1:8723".
	Shards []string
	// Replicas is the replica factor: every system is registered on this many
	// shards (capped by the fleet size). Default 2.
	Replicas int
	// VNodes is the virtual-node count per shard on the hash ring. Default 64.
	VNodes int
	// ProbeInterval is the /readyz health-probe period. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe. Default 2s.
	ProbeTimeout time.Duration
	// ReconcileInterval is the placement-repair period: each pass re-registers
	// systems missing from their replica set (a shard that restarted empty, a
	// replica set that moved off a draining shard). Default 1s.
	ReconcileInterval time.Duration
	// BreakerThreshold consecutive transport failures open a shard's breaker.
	// Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open shard breaker sheds before probing.
	// Default 3s.
	BreakerCooldown time.Duration
	// RegisterTimeout bounds one registration import against one shard.
	// Default 60s (a registration pays partitioning and compilation).
	RegisterTimeout time.Duration
	// MaxBodyBytes bounds proxied request bodies. Default 1<<28.
	MaxBodyBytes int64
	// Client is the HTTP client for every shard call. Default: a dedicated
	// client with keep-alives.
	Client *http.Client
	// Telemetry receives the router series. Default: a private registry.
	Telemetry *telemetry.Registry
	// Logf, when set, receives router event logs (failovers, repairs, drains).
	Logf func(format string, args ...any)
}

// Router places registered systems on R-way replica sets over a consistent-
// hash ring of shards and keeps them reachable: requests route to the first
// healthy replica, fail over on transport errors, and a reconciler
// re-registers systems whose shards were lost. All shard registration —
// initial placement, crash repair, drain migration — flows through the same
// idempotent POST /v1/registry import.
type Router struct {
	opts   Options
	ring   *Ring
	client *http.Client
	tel    *telemetry.Registry
	stats  rstats

	mu      sync.Mutex
	shards  map[string]*shard
	systems map[string]*clusterSystem
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// clusterSystem is one system the router places: the self-contained
// registration record is everything a replacement shard needs. IDs are
// stable — a values-only update bumps the record's generation in place and
// never re-keys — so the ring places a system by its ID.
type clusterSystem struct {
	info serve.SystemInfo
	rec  serve.RegistrationRecord
}

// ErrNoShards reports a request for which no eligible replica remains.
var ErrNoShards = errors.New("cluster: no eligible shard")

// ErrUnknownSystem reports a request against a system the router does not
// place.
var ErrUnknownSystem = errors.New("cluster: unknown system")

// New builds the router and starts its health-probe and reconcile loops.
// Callers own Close.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("cluster: need at least one shard")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.VNodes <= 0 {
		opts.VNodes = 64
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 250 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.ReconcileInterval <= 0 {
		opts.ReconcileInterval = time.Second
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 3 * time.Second
	}
	if opts.RegisterTimeout <= 0 {
		opts.RegisterTimeout = 60 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 28
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	rt := &Router{
		opts:    opts,
		ring:    NewRing(opts.Shards, opts.VNodes),
		client:  opts.Client,
		tel:     opts.Telemetry,
		stats:   newRStats(opts.Telemetry),
		shards:  map[string]*shard{},
		systems: map[string]*clusterSystem{},
		stop:    make(chan struct{}),
	}
	for _, name := range rt.ring.Shards() {
		hgauge := rt.stats.health.With(name)
		sh := &shard{
			name: name,
			br: breaker.New(opts.BreakerThreshold, opts.BreakerCooldown,
				func() { rt.stats.opens.Add(1) },
				rt.stats.breakerState.With(name).Set),
			onHealth: func(h shardHealth) { hgauge.Set(healthGaugeValue(h)) },
		}
		hgauge.Set(healthGaugeValue(healthUnknown))
		rt.shards[name] = sh
	}
	rt.wg.Add(2)
	go rt.probeLoop()
	go rt.reconcileLoop()
	return rt, nil
}

// Close stops the probe and reconcile loops.
func (rt *Router) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.stop)
	rt.wg.Wait()
}

func (rt *Router) logf(format string, args ...any) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

// shardFor returns the live state of a named shard.
func (rt *Router) shardFor(name string) *shard {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.shards[name]
}

// replicaSet returns the system's current replica set: the first R eligible
// shards of its ring preference order. With every shard ineligible it falls
// back to the raw order — a best-effort attempt beats an instant 503.
func (rt *Router) replicaSet(id string) []*shard {
	order := rt.ring.Order(id)
	set := make([]*shard, 0, rt.opts.Replicas)
	for _, name := range order {
		if sh := rt.shardFor(name); sh != nil && sh.eligible() {
			set = append(set, sh)
			if len(set) == rt.opts.Replicas {
				return set
			}
		}
	}
	if len(set) > 0 {
		return set
	}
	for _, name := range order {
		if sh := rt.shardFor(name); sh != nil {
			set = append(set, sh)
			if len(set) == rt.opts.Replicas {
				break
			}
		}
	}
	return set
}

// ReplicaSet returns the shard URLs currently serving the system, owner
// first — the same preference order routing uses.
func (rt *Router) ReplicaSet(id string) []string {
	set := rt.replicaSet(id)
	urls := make([]string, len(set))
	for i, sh := range set {
		urls[i] = sh.name
	}
	return urls
}

// forward sends one request to one shard, counting it and observing latency.
// A transport error or a shard-level shed (502/503/504) is retryable: the
// caller fails over; everything else is the system of record's answer.
func (rt *Router) forward(ctx context.Context, sh *shard, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, sh.name+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	sh.inflight.Add(1)
	defer sh.inflight.Add(-1)
	rt.stats.routed.With(sh.name).Inc()
	rt.stats.routedTotal.Inc()
	start := time.Now()
	resp, err := rt.client.Do(req)
	rt.stats.latency.With(sh.name).Observe(time.Since(start).Seconds())
	return resp, err
}

// retryableStatus reports shard-level shed codes worth failing over: the
// shard is draining, overloaded or behind a dead proxy — another replica may
// hold the answer.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// shardCall is one JSON request to one shard.
type shardCall struct {
	what         string // the operation, for error text: "import", "update", ...
	method, path string
	body         []byte
	// repair names the system whose lost registration a 404 re-imports before
	// one retry (see proxyOn); empty lets a 404 stand.
	repair string
	// ok lists the statuses that mean the shard did it; nil is 200 alone.
	ok []int
}

// callOn runs one call against one shard and settles the shard's breaker the
// way routeRequest does: a transport error or a shed status (502/503/504) is
// a failure, any other answer — an application-level 4xx included — proves
// the shard reachable and is a success. An ok answer's JSON body is decoded
// into out (nil discards it); every other answer becomes an error carrying the
// status line and at most 1 KiB of the shard's message.
func (rt *Router) callOn(ctx context.Context, sh *shard, c shardCall, out any) error {
	resp, err := rt.proxyOn(ctx, sh, c.repair, c.method, c.path, c.body)
	if err != nil {
		sh.br.Failure()
		return err
	}
	defer resp.Body.Close()
	if retryableStatus(resp.StatusCode) {
		sh.br.Failure()
	} else {
		sh.br.Success()
	}
	ok := c.ok
	if ok == nil {
		ok = []int{http.StatusOK}
	}
	if !slices.Contains(ok, resp.StatusCode) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("cluster: %s %s: %s: %s", sh.name, c.what, resp.Status, msg)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fanOut runs call on every shard of the system's replica set whose breaker
// admits it and returns how many shards it succeeded on. A failure is logged
// ("cluster: <doing> <id> on <shard>: ...") and the walk continues; with no
// success at all the error is ErrNoShards when no shard was even tried, else
// "cluster: no shard <did> <id>" wrapping the last failure.
func (rt *Router) fanOut(id, doing, did string, call func(sh *shard) error) (int, error) {
	done := 0
	var lastErr error
	for _, sh := range rt.replicaSet(id) {
		if !sh.br.Allow() {
			continue
		}
		if err := call(sh); err != nil {
			lastErr = err
			rt.logf("cluster: %s %s on %s: %v", doing, id, sh.name, err)
			continue
		}
		done++
	}
	if done == 0 {
		if lastErr != nil {
			return 0, fmt.Errorf("cluster: no shard %s %s: %w", did, id, lastErr)
		}
		return 0, ErrNoShards
	}
	return done, nil
}

// Register places a system: the matrix is built and fingerprinted locally,
// recorded in the router table, then imported on every shard of its replica
// set. Registration succeeds when at least one shard holds the system (the
// reconciler completes the set); it is idempotent end to end.
func (rt *Router) Register(ctx context.Context, req serve.RegisterRequest) (serve.SystemInfo, error) {
	// The shards' engine gate, run here: a config naming the simulator or a
	// device trace is rejected typed, before any shard traffic (imports skip
	// the gate on the shards).
	if err := serve.CheckServable(req.Config); err != nil {
		return serve.SystemInfo{}, err
	}
	m, err := serve.BuildMatrix(req)
	if err != nil {
		return serve.SystemInfo{}, err
	}
	rec := serve.NewRegistrationRecord(m, req.Config)

	rt.mu.Lock()
	if cs, ok := rt.systems[rec.ID]; ok {
		info := cs.info
		rt.mu.Unlock()
		return info, nil // idempotent re-registration
	}
	rt.mu.Unlock()

	var info serve.SystemInfo
	var donor *shard
	if _, err := rt.fanOut(rec.ID, "registering", "accepted", func(sh *shard) error {
		rep, err := rt.registerOn(ctx, sh, rec)
		if err == nil && len(rep.Systems) > 0 {
			info = rep.Systems[0]
			donor = sh
		}
		return err
	}); err != nil {
		return serve.SystemInfo{}, err
	}
	rec.Generation = info.Generation
	if info.Tuned && donor != nil {
		// A shard raced the system's candidates at registration. Capture its
		// decision into the router's record so every future repair import
		// lands the tuned configuration without re-racing.
		if d, err := rt.fetchTune(ctx, donor, rec.ID); err == nil {
			rec.Tune = d
		} else {
			rt.logf("cluster: fetching tune decision for %s from %s: %v", rec.ID, donor.name, err)
		}
	}
	rt.mu.Lock()
	rt.systems[rec.ID] = &clusterSystem{info: info, rec: rec}
	rt.mu.Unlock()
	return info, nil
}

// Update applies a values-only refresh cluster-wide: the new matrix is built
// and pattern-checked locally (a structural change is a typed conflict before
// any shard traffic), the PATCH forwards to every shard of the system's
// replica set — repairing shards that lost the registration, exactly as
// routing does — and the placement table's record is rewritten in place under
// the same stable ID with its values generation bumped, carrying any cached
// tune decision forward. The update succeeds when at least one shard applied
// it; the reconciler imports the refreshed record on stragglers.
func (rt *Router) Update(ctx context.Context, req serve.UpdateRequest) (serve.UpdateInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.UpdateInfo{}, err
	}
	return rt.update(ctx, req, body)
}

// update is Update with the PATCH body the shards get: the HTTP route forwards
// the client's bytes, as the solve route does, where Update encodes req.
func (rt *Router) update(ctx context.Context, req serve.UpdateRequest, body []byte) (serve.UpdateInfo, error) {
	if err := serve.CheckServable(req.Config); err != nil {
		return serve.UpdateInfo{}, err
	}
	rt.mu.Lock()
	cs, ok := rt.systems[req.ID]
	rt.mu.Unlock()
	if !ok {
		return serve.UpdateInfo{}, fmt.Errorf("%w: %s", ErrUnknownSystem, req.ID)
	}
	cur, err := cs.rec.Matrix()
	if err != nil {
		return serve.UpdateInfo{}, err
	}
	m, err := serve.BuildUpdateMatrix(req, cur)
	if err != nil {
		return serve.UpdateInfo{}, err
	}
	if err := m.Validate(); err != nil {
		return serve.UpdateInfo{}, err
	}
	if m.PatternFingerprint() != cur.PatternFingerprint() {
		return serve.UpdateInfo{}, fmt.Errorf("%w: system %s is placed for pattern %s, update carries %s",
			core.ErrPatternMismatch, req.ID, cur.PatternFingerprintString(), m.PatternFingerprintString())
	}
	var cfgp *config.Config
	if cs.rec.Config.Solver.Type != "" {
		c := cs.rec.Config
		cfgp = &c
	}
	rec := serve.NewRegistrationRecord(m, cfgp)
	rec.ID = req.ID
	if fp := m.FingerprintString(); fp != req.ID {
		rec.FP = fp
	}
	rec.Tune = cs.rec.Tune

	var info serve.UpdateInfo
	applied, err := rt.fanOut(req.ID, "updating", "applied the update to", func(sh *shard) error {
		var ui serve.UpdateInfo
		err := rt.callOn(ctx, sh, shardCall{what: "update", method: http.MethodPatch,
			path: "/v1/systems/" + req.ID, body: body, repair: req.ID}, &ui)
		if err == nil {
			info = ui
		}
		return err
	})
	if err != nil {
		return serve.UpdateInfo{}, err
	}

	rec.Generation = info.Generation
	rt.mu.Lock()
	if cur, ok := rt.systems[req.ID]; ok {
		cur.info = info.SystemInfo
		cur.rec = rec
	}
	rt.mu.Unlock()
	rt.logf("cluster: refreshed %s to generation %d on %d shard(s)", req.ID, info.Generation, applied)
	return info, nil
}

// Delete deregisters a system cluster-wide: the placement table forgets it
// first — so a racing reconcile pass cannot re-import the record onto a shard
// that just deleted it — then DELETE fans out to every shard of the replica
// set. A shard that already lost the system answers 404, which is equally
// deleted.
func (rt *Router) Delete(ctx context.Context, id string) error {
	rt.mu.Lock()
	_, ok := rt.systems[id]
	if ok {
		delete(rt.systems, id)
	}
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSystem, id)
	}
	deleted, err := rt.fanOut(id, "deleting", "deleted", func(sh *shard) error {
		return rt.callOn(ctx, sh, shardCall{what: "delete", method: http.MethodDelete,
			path: "/v1/systems/" + id, ok: []int{http.StatusNoContent, http.StatusNotFound}}, nil)
	})
	if err != nil {
		return err
	}
	rt.logf("cluster: deleted %s from %d shard(s)", id, deleted)
	return nil
}

// TuneForce re-races a system's candidates on every replica currently serving
// it and returns the last decision won. The router's registration record
// carries the fresh decision, so future repair imports land the tuned
// configuration without re-racing.
func (rt *Router) TuneForce(ctx context.Context, id string) (*tune.Decision, error) {
	rt.mu.Lock()
	cs, ok := rt.systems[id]
	rt.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSystem, id)
	}
	var d *tune.Decision
	raced, err := rt.fanOut(id, "tuning", "tuned", func(sh *shard) error {
		var body tuneBody
		err := rt.callOn(ctx, sh, shardCall{what: "tune", method: http.MethodPost,
			path: "/v1/systems/" + id + "/tune", body: []byte(`{}`), repair: id}, &body)
		if err == nil && body.Tune != nil {
			d = body.Tune
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	cs.rec.Tune = d
	cs.info.Tuned = d != nil
	rt.mu.Unlock()
	rt.logf("cluster: re-tuned %s on %d shard(s)", id, raced)
	return d, nil
}

// tuneBody is the shard's answer on both tune routes.
type tuneBody struct {
	Tune *tune.Decision `json:"tune"`
}

// fetchTune asks one shard for a system's cached tune decision.
func (rt *Router) fetchTune(ctx context.Context, sh *shard, id string) (*tune.Decision, error) {
	rctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	var body tuneBody
	err := rt.callOn(rctx, sh, shardCall{what: "tune", method: http.MethodGet,
		path: "/v1/systems/" + id + "/tune"}, &body)
	return body.Tune, err
}

// registerOn imports one record on one shard through the idempotent registry
// endpoint — the single mechanism behind initial placement, crash repair and
// drain migration.
func (rt *Router) registerOn(ctx context.Context, sh *shard, rec serve.RegistrationRecord) (serve.ImportReport, error) {
	body, err := json.Marshal(map[string]any{"records": []serve.RegistrationRecord{rec}})
	if err != nil {
		return serve.ImportReport{}, err
	}
	rctx, cancel := context.WithTimeout(ctx, rt.opts.RegisterTimeout)
	defer cancel()
	var rep serve.ImportReport
	err = rt.callOn(rctx, sh, shardCall{what: "import", method: http.MethodPost,
		path: "/v1/registry", body: body}, &rep)
	return rep, err
}

// Systems lists the systems the router places, sorted by ID.
func (rt *Router) Systems() []serve.SystemInfo {
	rt.mu.Lock()
	out := make([]serve.SystemInfo, 0, len(rt.systems))
	for _, cs := range rt.systems {
		out = append(out, cs.info)
	}
	rt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// record returns the registration record for a placed system.
func (rt *Router) record(id string) (serve.RegistrationRecord, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	cs, ok := rt.systems[id]
	if !ok {
		return serve.RegistrationRecord{}, false
	}
	return cs.rec, true
}

// proxyOn tries one request on one shard, repairing a lost registration: a
// 404 for a system the router places means the shard restarted without it, so
// the record is re-imported — carrying any cached tune decision, so the
// repaired shard serves the tuned configuration without re-racing — and the
// request retried once on the same shard. An id the router does not place
// (the empty one included) leaves the 404 standing.
func (rt *Router) proxyOn(ctx context.Context, sh *shard, id, method, path string, body []byte) (*http.Response, error) {
	resp, err := rt.forward(ctx, sh, method, path, body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusNotFound {
		return resp, nil
	}
	rec, known := rt.record(id)
	if !known {
		return resp, nil // genuinely unknown system: the 404 stands
	}
	resp.Body.Close()
	rt.stats.rereg.Inc()
	rt.logf("cluster: %s lost %s, re-registering", sh.name, id)
	if _, err := rt.registerOn(ctx, sh, rec); err != nil {
		return nil, err
	}
	rt.stats.retries.Inc()
	return rt.forward(ctx, sh, method, path, body)
}

// routeRequest walks the system's replica set in preference order: breaker-
// rejected shards are skipped, transport errors and shed statuses fail over
// to the next replica, the first real answer (success or application error)
// is returned. A nil response with nil error means every replica was
// exhausted.
func (rt *Router) routeRequest(ctx context.Context, id, method, path string, body []byte) (*http.Response, error) {
	var lastErr error
	first := true
	for _, sh := range rt.replicaSet(id) {
		if !sh.br.Allow() {
			continue
		}
		if !first {
			rt.stats.failovers.Inc()
		}
		first = false
		resp, err := rt.proxyOn(ctx, sh, id, method, path, body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err() // the client gave up, not the shard
			}
			sh.br.Failure()
			rt.logf("cluster: %s failed %s: %v", sh.name, path, err)
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) {
			sh.br.Failure()
			lastErr = fmt.Errorf("cluster: %s: %s", sh.name, resp.Status)
			resp.Body.Close()
			continue
		}
		sh.br.Success()
		return resp, nil
	}
	rt.stats.unroute.Inc()
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrNoShards, lastErr)
	}
	return nil, ErrNoShards
}

// reconcileLoop repairs placement at the configured interval until the router
// closes.
func (rt *Router) reconcileLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.Reconcile(context.Background())
		}
	}
}

// Reconcile makes placement match intent once: every placed system must be
// registered on every shard of its current replica set. Shards are asked
// what they hold (GET /v1/systems), so a shard that crashed and restarted
// empty — or a replica set that moved off a draining shard — is repaired by
// re-importing the missing records. Exposed so the drain path and tests can
// force a pass. Returns the number of repairs performed.
func (rt *Router) Reconcile(ctx context.Context) int {
	held := map[string]map[string]bool{}
	rt.mu.Lock()
	shards := make([]*shard, 0, len(rt.shards))
	for _, sh := range rt.shards {
		shards = append(shards, sh)
	}
	systems := make(map[string]*clusterSystem, len(rt.systems))
	for id, cs := range rt.systems {
		systems[id] = cs
	}
	rt.mu.Unlock()

	for _, sh := range shards {
		if !sh.eligible() {
			continue
		}
		ids, err := rt.fetchSystems(ctx, sh)
		if err != nil {
			continue // unreachable this pass: repaired next time
		}
		held[sh.name] = ids
	}
	repaired := 0
	for id, cs := range systems {
		for _, sh := range rt.replicaSet(id) {
			ids, probed := held[sh.name]
			if !probed || ids[id] {
				continue // unreachable, or already holds it
			}
			if _, err := rt.registerOn(ctx, sh, cs.rec); err != nil {
				rt.logf("cluster: repairing %s on %s: %v", id, sh.name, err)
				continue
			}
			held[sh.name][id] = true
			rt.stats.rereg.Inc()
			repaired++
			rt.logf("cluster: repaired %s on %s", id, sh.name)
		}
	}
	return repaired
}

// fetchSystems asks one shard what it holds.
func (rt *Router) fetchSystems(ctx context.Context, sh *shard) (map[string]bool, error) {
	rctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, sh.name+"/v1/systems", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s systems: %s", sh.name, resp.Status)
	}
	var body struct {
		Systems []serve.SystemInfo `json:"systems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	ids := make(map[string]bool, len(body.Systems))
	for _, s := range body.Systems {
		ids[s.ID] = true
	}
	return ids, nil
}

// DrainReport summarizes a completed shard drain.
type DrainReport struct {
	Shard    string `json:"shard"`
	Migrated int    `json:"migrated"` // registrations repaired onto other shards
	Inflight int64  `json:"inflight"` // requests still on the shard at return (0 on clean drain)
}

// DrainShard removes a shard from service gracefully: it leaves every replica
// set, a synchronous reconcile re-registers its systems on their new sets,
// the shard itself is told to drain (in-flight work completes, new work is
// refused), and the router waits for its own in-flight requests to the shard
// to finish. After DrainShard returns the shard can be stopped without
// failing a request.
func (rt *Router) DrainShard(ctx context.Context, name string) (DrainReport, error) {
	sh := rt.shardFor(name)
	if sh == nil {
		return DrainReport{}, fmt.Errorf("cluster: unknown shard %q", name)
	}
	sh.mu.Lock()
	sh.draining = true
	sh.mu.Unlock()
	rt.logf("cluster: draining %s", name)

	// Re-place everything while the shard still serves: new replica sets skip
	// it, so every system it held is imported elsewhere before it stops.
	migrated := rt.Reconcile(ctx)

	// Tell the shard: it finishes in-flight work and flips /readyz to
	// draining. Best-effort — a dead shard is already drained.
	if resp, err := rt.forward(ctx, sh, http.MethodPost, "/v1/drain", []byte(`{}`)); err == nil {
		resp.Body.Close()
	}

	// Wait out the router's own in-flight requests to the shard.
	for sh.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return DrainReport{Shard: name, Migrated: migrated, Inflight: sh.inflight.Load()}, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	rt.logf("cluster: drained %s (%d registrations migrated)", name, migrated)
	return DrainReport{Shard: name, Migrated: migrated}, nil
}

// UndrainShard returns a drained (or replaced) shard to service; the
// reconciler re-registers whatever its replica sets now require.
func (rt *Router) UndrainShard(name string) error {
	sh := rt.shardFor(name)
	if sh == nil {
		return fmt.Errorf("cluster: unknown shard %q", name)
	}
	sh.mu.Lock()
	sh.draining = false
	sh.mu.Unlock()
	rt.logf("cluster: undrained %s", name)
	return nil
}
