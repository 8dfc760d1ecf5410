package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRouterControlBodiesBounded: the cluster-control routes read their
// bodies under MaxBodyBytes like every other route, so an oversized drain or
// undrain body is refused with 413 before it is decoded, not read whole and
// answered as an unknown shard.
func TestRouterControlBodiesBounded(t *testing.T) {
	rt, err := New(Options{
		Shards:            []string{"http://127.0.0.1:1"},
		MaxBodyBytes:      64,
		ProbeInterval:     time.Hour,
		ReconcileInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	body := `{"shard":"http://` + strings.Repeat("x", 100) + `"}`
	for _, path := range []string{"/v1/cluster/drain", "/v1/cluster/undrain"} {
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body over a 64-byte limit = %d %s, want 413",
				path, len(body), w.Code, w.Body)
		}
	}
}
