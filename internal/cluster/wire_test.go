package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ipusparse/internal/serve"
)

// TestRouterForwardsLengthAndBody: a routed solve reaches the client with the
// shard's Content-Length (not re-chunked), whether or not the request declared
// a length, and a PATCH goes to the shards as the bytes the client sent, keys
// spelled its way.
func TestRouterForwardsLengthAndBody(t *testing.T) {
	rt, _ := testCluster(t, 2, 2)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()
	big := registerGen(t, rt, "poisson2d:16") // an answer past net/http's own 2 kB sizing
	for _, sized := range []bool{true, false} {
		var body io.Reader = bytes.NewReader([]byte(`{"rhs":"ones"}`))
		if !sized {
			body = io.MultiReader(body) // a reader http.NewRequest cannot size
		}
		resp, err := http.Post(srv.URL+"/v1/systems/"+big.ID+"/solve", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("sized=%v: routed solve = %d %s (%v)", sized, resp.StatusCode, raw, err)
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Errorf("sized=%v: Content-Length %d for a %d-byte answer", sized, resp.ContentLength, len(raw))
		}
	}

	info := registerGen(t, rt, "poisson2d:8")
	m, err := serve.BuildMatrix(serve.RegisterRequest{Gen: "poisson2d:8"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Diag {
		m.Diag[i] += 1
	}
	diag, _ := json.Marshal(m.Diag)
	patch := append(append([]byte(`{"unknown":[{}], "DIAG": `), diag...), `} trailing`...)
	req := httptest.NewRequest(http.MethodPatch, "/v1/systems/"+info.ID, bytes.NewReader(patch))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	var up serve.UpdateInfo
	if err := json.Unmarshal(w.Body.Bytes(), &up); err != nil || w.Code != http.StatusOK || up.Generation != info.Generation+1 {
		t.Fatalf("PATCH through the router = %d %s (%v)", w.Code, w.Body, err)
	}
	solveOnes(t, rt.Handler(), info.ID)
}
