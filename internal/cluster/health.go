package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ipusparse/internal/breaker"
)

// shardHealth is a shard's probed readiness, the router's routing signal.
type shardHealth int

const (
	healthUnknown  shardHealth = iota // not probed yet: routable, optimistically
	healthOK                          // /readyz 200
	healthDegraded                    // /readyz 503 "degraded": up, every breaker open
	healthDraining                    // /readyz 503 "draining": finishing, refusing work
	healthDown                        // probe failed: unreachable
)

// String implements fmt.Stringer.
func (h shardHealth) String() string {
	switch h {
	case healthOK:
		return "ok"
	case healthDegraded:
		return "degraded"
	case healthDraining:
		return "draining"
	case healthDown:
		return "down"
	}
	return "unknown"
}

// healthGaugeValue maps health onto the cluster_shard_health gauge scale.
func healthGaugeValue(h shardHealth) float64 {
	switch h {
	case healthOK:
		return 0
	case healthDegraded:
		return 1
	case healthDraining:
		return 2
	case healthDown:
		return 3
	}
	return -1
}

// shard is the router's live state for one backend: its probed health, its
// circuit breaker, the router-side drain flag, and the in-flight count the
// drain waits on.
type shard struct {
	name     string // base URL, e.g. http://127.0.0.1:8723
	br       *breaker.Breaker
	inflight atomic.Int64
	onHealth func(shardHealth) // health-gauge hook

	mu       sync.Mutex
	health   shardHealth
	draining bool // router-initiated drain: excluded from every replica set
}

func (sh *shard) setHealth(h shardHealth) {
	sh.mu.Lock()
	changed := sh.health != h
	sh.health = h
	sh.mu.Unlock()
	if changed && sh.onHealth != nil {
		sh.onHealth(h)
	}
}

// eligible reports whether the shard may appear in replica sets: reachable,
// not draining (either side), degraded still allowed as a last resort —
// placement-level filtering; the breaker gates individual requests.
func (sh *shard) eligible() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.draining {
		return false
	}
	return sh.health != healthDown && sh.health != healthDraining
}

func (sh *shard) status() ShardStatus {
	sh.mu.Lock()
	h, d := sh.health, sh.draining
	sh.mu.Unlock()
	return ShardStatus{
		Health:   h.String(),
		Breaker:  sh.br.State().String(),
		Draining: d,
		Inflight: sh.inflight.Load(),
	}
}

// probeLoop re-probes every shard at the configured interval until the router
// closes.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		rt.ProbeNow()
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
	}
}

// ProbeNow probes every shard's /readyz once, concurrently, and updates the
// health table. Exposed so tests and the drain path can refresh health
// without waiting out the probe interval.
func (rt *Router) ProbeNow() {
	rt.mu.Lock()
	shards := make([]*shard, 0, len(rt.shards))
	for _, sh := range rt.shards {
		shards = append(shards, sh)
	}
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.setHealth(rt.probe(sh))
		}(sh)
	}
	wg.Wait()
}

// probe classifies one shard's /readyz answer.
func (rt *Router) probe(sh *shard) shardHealth {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.name+"/readyz", nil)
	if err != nil {
		return healthDown
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return healthDown
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	switch {
	case resp.StatusCode == http.StatusOK:
		return healthOK
	case body.Status == "draining":
		return healthDraining
	case body.Status == "degraded":
		return healthDegraded
	default:
		return healthDown
	}
}
