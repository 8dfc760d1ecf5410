package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
)

// bitsEqual is reflect.DeepEqual with floats compared by their bits, so a NaN
// equals itself and -0 differs from 0.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// checkDecode holds the hand decoder to its oracle on one input: encoding/json
// on the same struct accepts exactly what hand accepts, with the same value.
func checkDecode[T any](t *testing.T, data []byte, hand func([]byte, *T) error) {
	t.Helper()
	var want, got T
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	gotErr := hand(data, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("input %q: encoding/json error %v, hand decoder error %v", data, wantErr, gotErr)
	}
	if wantErr == nil && !bitsEqual(reflect.ValueOf(want), reflect.ValueOf(got)) {
		t.Fatalf("input %q:\nencoding/json %+v\nhand decoder  %+v", data, want, got)
	}
}

// The seed corpus of both targets is committed under testdata/fuzz, one body
// per file: the inputs a hand scanner gets wrong first (escaped, upper-case and
// repeated keys, nulls, empty arrays, every number encoding/json refuses,
// bodies cut at every structural byte). Plain go test runs them all.
func FuzzDecodeSolveRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, DecodeSolveRequest) })
}

func FuzzDecodeUpdateRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, DecodeUpdateRequest) })
}

// TestWireDepthLimit pins the one limit the seeds are too short for: nesting
// is refused past encoding/json's depth, by both, and a hostile body cannot
// grow the stack without bound.
func TestWireDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 2, maxDepth - 1, maxDepth, maxDepth + 1, 20 * maxDepth} {
		arrays := `{"u":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		objects := `{"u":` + strings.Repeat(`{"a":`, depth) + `1` + strings.Repeat("}", depth) + `}`
		checkDecode(t, []byte(arrays), DecodeSolveRequest)
		checkDecode(t, []byte(objects), DecodeSolveRequest)
	}
}

// TestWireFieldsCoverStruct keeps the two key switches in step with the struct
// tags: a field added to a request type and not to its switch would be
// silently ignored by the served route.
func TestWireFieldsCoverStruct(t *testing.T) {
	sample := func(f reflect.StructField) string {
		switch f.Type {
		case reflect.TypeOf([]float64(nil)):
			return `[1.5,-2]`
		case reflect.TypeOf([][]float64(nil)):
			return `[[1],[2,3]]`
		case reflect.TypeOf([][3]float64(nil)):
			return `[[0,1,2.5]]`
		case reflect.TypeOf((*config.Config)(nil)):
			return `{"solver":{"type":"cg"}}`
		}
		switch f.Type.Kind() {
		case reflect.String:
			return `"s"`
		case reflect.Int:
			return `3`
		case reflect.Bool:
			return `true`
		}
		t.Fatalf("field %s: no sample for type %s", f.Name, f.Type)
		return ""
	}
	each := func(typ reflect.Type, check func(body []byte)) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			check([]byte(`{"` + name + `":` + sample(f) + `}`))
		}
	}
	each(reflect.TypeOf(SolveRequest{}), func(body []byte) {
		checkDecode(t, body, DecodeSolveRequest)
		var got SolveRequest
		if DecodeSolveRequest(body, &got); reflect.DeepEqual(got, SolveRequest{}) {
			t.Errorf("DecodeSolveRequest ignores %s", body)
		}
	})
	each(reflect.TypeOf(UpdateRequest{}), func(body []byte) {
		checkDecode(t, body, DecodeUpdateRequest)
		var got UpdateRequest
		if DecodeUpdateRequest(body, &got); reflect.DeepEqual(got, UpdateRequest{}) {
			t.Errorf("DecodeUpdateRequest ignores %s", body)
		}
	})
}

// wireFloats are the values where encoding/json's float rule changes shape.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 1e21, 9.999999999999999e20, -1e21, 1.2345e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
	math.Pi, 1.0 / 3, 123456789.125, 1 << 53, 1e6, 100,
}

func randomResponse(r *rand.Rand) SolveResponse {
	texts := []string{"", "cg+jacobi", "<b>&amp;</b>", "a\u2028b\u2029c", "quote\"back\\slash\n\t\x01", "\xff\xfe", "é😀"}
	float := func() float64 {
		switch r.Intn(3) {
		case 0:
			return wireFloats[r.Intn(len(wireFloats))]
		case 1:
			return r.NormFloat64()
		}
		return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(0x7ff))<<52) // any finite value
	}
	resp := SolveResponse{
		Converged:  r.Intn(2) == 0,
		Iterations: r.Intn(1000),
		RelRes:     float(),
		Solver:     texts[r.Intn(len(texts))],
		Restarts:   r.Intn(3) * r.Intn(2),
		Cycles:     r.Uint64() >> uint(r.Intn(64)),
		Seconds:    float(),
		Error:      texts[r.Intn(len(texts))],
	}
	switch r.Intn(4) {
	case 0: // nil x
	case 1:
		resp.X = []float64{}
	default:
		resp.X = make([]float64, 1+r.Intn(40))
		for i := range resp.X {
			resp.X[i] = float()
		}
	}
	return resp
}

// TestAppendSolveResponseMatchesEncodingJSON holds the append encoder to the
// bytes json.NewEncoder writes, single answers and batches with failed items.
func TestAppendSolveResponseMatchesEncodingJSON(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	r := rand.New(rand.NewSource(18))
	fixed := []SolveResponse{{}, {X: wireFloats}, {Error: "serve: circuit open"}, {X: []float64{1}, Error: "<both>"}}
	for i := 0; i < 2000; i++ {
		resp := randomResponse(r)
		if i < len(fixed) {
			resp = fixed[i]
		}
		got, err := AppendSolveResponse([]byte("prefix"), &resp)
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if want := append([]byte("prefix"), encode(resp)...); !bytes.Equal(got, want) {
			t.Fatalf("single answer:\nwant %s\ngot  %s", want, got)
		}
	}
	for _, n := range []int{-1, 0, 1, 2, 8} {
		var batch BatchResponse
		if n >= 0 {
			batch.Results = make([]SolveResponse, n)
		}
		for i := range batch.Results {
			if batch.Results[i] = randomResponse(r); i%3 == 1 {
				batch.Results[i] = toResponse(nil, ErrCircuitOpen, false)
			}
		}
		got, err := AppendBatchResponse(nil, &batch)
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(batch); !bytes.Equal(got, want) {
			t.Fatalf("batch of %d:\nwant %s\ngot  %s", n, want, got)
		}
	}
}

// TestAppendSolveResponseRefusesNonFinite pins what encoding/json refuses too.
func TestAppendSolveResponseRefusesNonFinite(t *testing.T) {
	for _, resp := range []SolveResponse{
		{RelRes: math.NaN()}, {Seconds: math.Inf(1)},
		{X: []float64{1, math.NaN()}}, {X: []float64{math.Inf(-1)}},
	} {
		if _, err := json.Marshal(resp); err == nil {
			t.Fatalf("encoding/json takes %+v", resp)
		}
		if _, err := AppendSolveResponse(nil, &resp); err == nil {
			t.Errorf("AppendSolveResponse takes %+v", resp)
		}
		if _, err := AppendBatchResponse(nil, &BatchResponse{Results: []SolveResponse{{}, resp}}); err == nil {
			t.Errorf("AppendBatchResponse takes %+v", resp)
		}
	}
}

var wireSink int

// BenchmarkWire times both directions of the serve-wire body (poisson3d:14,
// 2 744 Gaussian numbers, ~54 kB) by hand and through encoding/json, next to
// the strconv calls neither can go below.
func BenchmarkWire(b *testing.B) {
	m, err := sparse.GenByName("poisson3d:14")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	resp := SolveResponse{Converged: true, Iterations: 31, RelRes: 1e-7, Solver: "cg+jacobi", X: make([]float64, m.N)}
	tokens := make([]string, m.N)
	body := []byte(`{"b":[`)
	for i := range resp.X {
		resp.X[i] = r.NormFloat64()
		tokens[i] = strconv.FormatFloat(resp.X[i], 'g', -1, 64) // the load generator's spelling
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, tokens[i]...)
	}
	body = append(body, "]}"...)
	out := make([]byte, 0, 2*len(body))

	run := func(name string, fn func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("decode/json", func() error {
		var req SolveRequest
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		wireSink += len(req.B)
		return err
	})
	run("decode/hand", func() error {
		var req SolveRequest
		err := DecodeSolveRequest(body, &req)
		wireSink += len(req.B)
		return err
	})
	run("floor/parsefloat", func() error {
		for _, tok := range tokens {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return err
			}
			wireSink += int(f)
		}
		return nil
	})
	run("encode/json", func() error {
		buf := bytes.NewBuffer(out)
		err := json.NewEncoder(buf).Encode(&resp)
		wireSink += buf.Len()
		return err
	})
	run("encode/hand", func() error {
		buf, err := AppendSolveResponse(out, &resp)
		wireSink += len(buf)
		return err
	})
	run("floor/appendfloat", func() error {
		buf := out
		for _, f := range resp.X {
			buf = strconv.AppendFloat(buf, f, 'f', -1, 64)
		}
		wireSink += len(buf)
		return nil
	})
}

// TestUnencodableAnswerIs500: an answer with no JSON form is a typed 500 with
// a body, on the cold routes' writeJSON as on the solve route's encoder; with
// the header written first it used to be an empty 200.
func TestUnencodableAnswerIs500(t *testing.T) {
	resp := SolveResponse{RelRes: math.NaN()}
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, resp)
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusInternalServerError || body["error"] == "" {
		t.Errorf("writeJSON of a NaN answer = %d %q (%v), want a 500 that names the error", w.Code, w.Body, err)
	}
	_, err := AppendSolveResponse(nil, &resp)
	if got := httpStatus(encodeError(err)); got != http.StatusInternalServerError {
		t.Errorf("status of an encoder error = %d, want 500", got)
	}
}

// TestSolveRouteOverTheWire drives the solve route through a real connection:
// explicit b in the load generator's spelling, sent with and without a
// declared length; the answer carries its length, parses back to a verified
// solution and is the bytes encoding/json would write.
func TestSolveRouteOverTheWire(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	m := sparse2dForTest()
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"B": [`)
	for i, v := range onesRHS(m) {
		if i > 0 {
			body = append(body, ", "...)
		}
		body = strconv.AppendFloat(body, v, 'g', -1, 64)
	}
	body = append(body, `], "unknown": {"k": [1, "two"]}}`...)
	for _, chunked := range []bool{false, true} {
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = io.MultiReader(rd) // a reader http.NewRequest cannot size
		}
		resp, err := http.Post(srv.URL+"/v1/systems/"+info.ID+"/solve", "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("chunked=%v: %d %s (%v)", chunked, resp.StatusCode, raw, err)
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Errorf("chunked=%v: Content-Length %d for a %d-byte answer", chunked, resp.ContentLength, len(raw))
		}
		var ans SolveResponse
		if err := json.Unmarshal(raw, &ans); err != nil {
			t.Fatal(err)
		}
		if relres, _ := trueResidual(m, ans.X, onesRHS(m)); !ans.Converged || len(ans.X) != m.N || relres > 1e-5 { // x is float32 on the device
			t.Errorf("chunked=%v: answer %+v, true residual %g", chunked, ans, relres)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ans); err != nil || !bytes.Equal(raw, want.Bytes()) {
			t.Errorf("chunked=%v: answer is not what encoding/json writes (%v):\n%s\n%s", chunked, err, raw, want.Bytes())
		}
	}
}

// TestOnesRHSOncePerGeneration: every {"rhs":"ones"} request of a values
// generation shares one vector, concurrent solves leave it as computed, and a
// PATCH starts a new one.
func TestOnesRHSOncePerGeneration(t *testing.T) {
	s := New(testOptions())
	defer s.Close()
	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := s.OnesRHS(info.ID)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := doReq(t, s, http.MethodPost, "/v1/systems/"+info.ID+"/solve", `{"rhs":"ones","omitX":true}`); w.Code != http.StatusOK {
				t.Errorf("solve = %d %s", w.Code, w.Body)
			}
		}()
	}
	wg.Wait()
	b2, _ := s.OnesRHS(info.ID)
	if &b1[0] != &b2[0] {
		t.Error("OnesRHS computed the vector again within one generation")
	}
	if !reflect.DeepEqual(b2, onesRHS(m)) {
		t.Error("the shared vector is no longer A*1 after solves read it")
	}

	next := &sparse.Matrix{N: m.N, Diag: append([]float64(nil), m.Diag...), RowPtr: m.RowPtr, Cols: m.Cols, Vals: m.Vals}
	for i := range next.Diag {
		next.Diag[i] += 1
	}
	if _, err := s.UpdateSystem(context.Background(), info.ID, next); err != nil {
		t.Fatal(err)
	}
	if b3, _ := s.OnesRHS(info.ID); !reflect.DeepEqual(b3, onesRHS(next)) {
		t.Error("OnesRHS after a PATCH is not A*1 of the new values")
	}
}

// TestTrueResidualKeepsMulVecBits: the row-by-row residual is the number the
// MulVec formulation gave, without its N-vector.
func TestTrueResidualKeepsMulVecBits(t *testing.T) {
	m := sparse.Poisson3D(6, 5, 4)
	r := rand.New(rand.NewSource(3))
	x, b, y := make([]float64, m.N), make([]float64, m.N), make([]float64, m.N)
	for i := range x {
		x[i], b[i] = r.NormFloat64(), r.NormFloat64()
	}
	m.MulVec(x, y)
	var rn, bn float64
	for i := range y {
		d := b[i] - y[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	got, finite := trueResidual(m, x, b)
	if want := math.Sqrt(rn / bn); !finite || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("trueResidual = %v (finite %v), MulVec formulation %v", got, finite, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { trueResidual(m, x, b) }); allocs != 0 {
		t.Errorf("trueResidual allocates %v times per call", allocs)
	}
}
