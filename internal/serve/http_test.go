package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipusparse/internal/fault"
	"ipusparse/internal/sparse"
)

// sparse2dForTest returns a small deterministic test system; repeated calls
// build the same matrix (same fingerprint, same system ID).
func sparse2dForTest() *sparse.Matrix { return sparse.Poisson2D(7, 7) }

// postRaw posts a raw body and returns the response with its body drained.
func postRaw(t *testing.T, url, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.String()
}

// doReq drives one request through a service handler and returns the
// recorder.
func doReq(t *testing.T, s *Service, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestHTTPErrorPaths walks every rejection path of the JSON API and checks
// the typed-error-to-status mapping.
func TestHTTPErrorPaths(t *testing.T) {
	opts := testOptions()
	opts.MaxBodyBytes = 2048
	s := New(opts)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	info, err := s.Register(context.Background(), sparse2dForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Malformed JSON → 400.
	resp, body := postRaw(t, srv.URL, "/v1/systems", `{"gen": "poisson2d:5"`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed register JSON: %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = postRaw(t, srv.URL, "/v1/systems/"+info.ID+"/solve", `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed solve JSON: %d %s, want 400", resp.StatusCode, body)
	}

	// Unknown system → 404.
	resp, body = postRaw(t, srv.URL, "/v1/systems/m0000000000000000/solve", `{"rhs":"ones"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown system: %d %s, want 404", resp.StatusCode, body)
	}

	// Oversized body → 413 with the typed error surfaced.
	big := `{"b": [` + strings.Repeat("1,", 4096) + `1]}`
	resp, body = postRaw(t, srv.URL, "/v1/systems/"+info.ID+"/solve", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %s, want 413", resp.StatusCode, body)
	}
	if !strings.Contains(body, "body too large") {
		t.Errorf("413 body %q does not name the typed error", body)
	}

	// Zero-length RHS → 400 (dimension mismatch is deterministic, no retry).
	resp, body = postRaw(t, srv.URL, "/v1/systems/"+info.ID+"/solve", `{"b": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero-length RHS: %d %s, want 400", resp.StatusCode, body)
	}
}

// TestHTTPTimeoutMapsTo504 stalls every attempt far past the request's
// deadline and checks the expiry surfaces as 504 Gateway Timeout.
func TestHTTPTimeoutMapsTo504(t *testing.T) {
	opts := testOptions()
	opts.RetryMax = -1
	opts.BreakerThreshold = -1
	opts.Chaos = fault.NewChaos(fault.ChaosPlan{
		Seed:          3,
		Rate:          1,
		Kinds:         []fault.ChaosKind{fault.ChaosStall},
		StallDuration: 5 * time.Second,
	})
	s := New(opts)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	info, err := s.Register(context.Background(), sparse2dForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postRaw(t, srv.URL, "/v1/systems/"+info.ID+"/solve",
		`{"rhs":"ones","timeoutMs":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("stalled solve: %d %s, want 504", resp.StatusCode, body)
	}
}

// TestReadyz checks the readiness transitions: ok while serving, degraded
// (503) when every system's breaker is open, draining (503) after Close.
func TestReadyz(t *testing.T) {
	opts := testOptions()
	opts.RetryMax = -1
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = time.Hour
	s := New(opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, body := get(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("fresh service readyz: %d %v", code, body)
	}

	info, err := s.Register(context.Background(), sparse2dForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the only system until its breaker opens: the service is up but
	// cannot serve an answer — degraded.
	s.corruptHook = func(x []float64) { x[0] += 1e3 }
	if _, err := s.Solve(context.Background(), info.ID, onesRHS(sparse2dForTest())); err == nil {
		t.Fatal("corrupted solve unexpectedly succeeded")
	}
	if code, body := get(); code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("all-breakers-open readyz: %d %v, want 503 degraded", code, body)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("closed readyz: %d %v, want 503 draining", code, body)
	}
}

// TestPatchRejectsMismatchedBodyID pins the path/body precedence rule: a
// PATCH whose body names a different system than the path is a 400, never a
// silent write to either.
func TestPatchRejectsMismatchedBodyID(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	info, err := s.Register(context.Background(), sparse.Poisson2D(8, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := doReq(t, s, http.MethodPatch, "/v1/systems/"+info.ID,
		`{"id":"someone-else","gen":"poisson2d:8"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("mismatched body id = %d, want 400: %s", w.Code, w.Body)
	}
}

// TestDeleteSystem pins the DELETE resource verb: 204 on success, the system
// gone from the listing, 404 on a second delete, and — with a state dir —
// the tombstone surviving restart.
func TestDeleteSystem(t *testing.T) {
	opts := testOptions()
	opts.StateDir = t.TempDir()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Register(context.Background(), sparse.Poisson2D(8, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := doReq(t, s, http.MethodDelete, "/v1/systems/"+info.ID, ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204: %s", w.Code, w.Body)
	}
	if got := s.Systems(); len(got) != 0 {
		t.Fatalf("system still listed after delete: %+v", got)
	}
	if w := doReq(t, s, http.MethodDelete, "/v1/systems/"+info.ID, ""); w.Code != http.StatusNotFound {
		t.Fatalf("second delete = %d, want 404", w.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Systems(); len(got) != 0 {
		t.Fatalf("deleted system resurrected by restart: %+v", got)
	}
}

// TestRemovedRPCRoutes pins the one-spelling rule: the pre-v1 RPC routes are
// gone, so each answers what the mux answers for a path it does not serve.
func TestRemovedRPCRoutes(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	for _, path := range []string{"/v1/register", "/v1/solve", "/v1/update"} {
		w := doReq(t, s, http.MethodPost, path, `{"gen":"poisson2d:8"}`)
		if w.Code != http.StatusNotFound && w.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 404 or 405", path, w.Code)
		}
	}
}
