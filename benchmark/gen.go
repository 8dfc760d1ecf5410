package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"ipusparse/internal/sparse"
)

// Everything a run sends is derived here from the seed. The daemons only ever
// see the generated requests: no flag, path or body names the seed or the
// workload (TestRequestsCarryNoSeedOrWorkloadName).

// subSeed derives an independent stream for one purpose from the run seed.
func subSeed(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

// system is one matrix the generator builds itself, so every answer can be
// checked against it. ID is the service's identifier, which is the matrix
// fingerprint and therefore known before registration.
type system struct {
	Gen    string          // generator spec, "" for explicit entries
	Config json.RawMessage // per-system solver config, nil = service default
	M      *sparse.Matrix
	ID     string
}

func genSystem(spec string, cfg json.RawMessage) (*system, error) {
	m, err := sparse.GenByName(spec)
	if err != nil {
		return nil, err
	}
	return &system{Gen: spec, Config: cfg, M: m, ID: m.FingerprintString()}, nil
}

// registerBody is the POST /v1/systems body of a generator-spec system.
func (s *system) registerBody() []byte {
	req := map[string]any{"gen": s.Gen}
	if s.Config != nil {
		req["config"] = s.Config
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of strings and valid raw JSON always marshals
	}
	return b
}

func onesRHS(m *sparse.Matrix) []float64 {
	ones := make([]float64, m.N)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, m.N)
	m.MulVec(ones, b)
	return b
}

// gaussianRHS draws count right-hand sides of n standard-normal entries.
func gaussianRHS(r *rand.Rand, n, count int) [][]float64 {
	out := make([][]float64, count)
	for k := range out {
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		out[k] = b
	}
	return out
}

func appendFloats(buf []byte, v []float64) []byte {
	buf = append(buf, '[')
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
	}
	return append(buf, ']')
}

// solveBody encodes {"b":[...]}.
func solveBody(b []float64) []byte {
	buf := make([]byte, 0, 24*len(b)+8)
	buf = append(buf, `{"b":`...)
	buf = appendFloats(buf, b)
	return append(buf, '}')
}

// batchBody encodes {"batch":[[...],...]}.
func batchBody(bs [][]float64) []byte {
	buf := append([]byte(nil), `{"batch":[`...)
	for i, b := range bs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloats(buf, b)
	}
	return append(buf, "]}"...)
}

// patchBody encodes a values-only refresh {"diag":[...],"vals":[...]}.
func patchBody(m *sparse.Matrix) []byte {
	buf := append([]byte(nil), `{"diag":`...)
	buf = appendFloats(buf, m.Diag)
	buf = append(buf, `,"vals":`...)
	buf = appendFloats(buf, m.Vals)
	return append(buf, '}')
}

// entriesBody encodes an explicit registration {"n":N,"entries":[[i,j,v],...]}.
func entriesBody(m *sparse.Matrix) []byte {
	buf := append([]byte(nil), `{"n":`...)
	buf = strconv.AppendInt(buf, int64(m.N), 10)
	buf = append(buf, `,"entries":[`...)
	first := true
	entry := func(i, j int, v float64) {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(j), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		buf = append(buf, ']')
	}
	for i := 0; i < m.N; i++ {
		entry(i, i, m.Diag[i])
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			entry(i, m.Cols[k], m.Vals[k])
		}
	}
	return append(buf, "]}"...)
}

// perturbed returns base with new values on the same pattern: every diagonal
// entry grows by up to 20% and the off-diagonals shrink by one common factor,
// so a symmetric diagonally dominant base stays symmetric and dominant and
// any of the repo's solvers still converges on it.
func perturbed(base *sparse.Matrix, r *rand.Rand) *sparse.Matrix {
	m := &sparse.Matrix{
		N:      base.N,
		Diag:   make([]float64, base.N),
		RowPtr: base.RowPtr,
		Cols:   base.Cols,
		Vals:   make([]float64, len(base.Vals)),
	}
	for i, d := range base.Diag {
		m.Diag[i] = d * (1 + 0.2*r.Float64())
	}
	f := 0.9 + 0.1*r.Float64()
	for k, v := range base.Vals {
		m.Vals[k] = v * f
	}
	return m
}

// ---- cluster-mixed -------------------------------------------------------

type opKind int

const (
	opSolve opKind = iota
	opBatch
	opPatch
	opRegister
	opGet
	opDelete
	numOpKinds
)

var opKindNames = [numOpKinds]string{"solve", "batch", "patch", "register", "get", "delete"}

func (k opKind) String() string { return opKindNames[k] }

// mixBlock is the op mix per 100 scheduled ops. Every block holds exactly
// these counts (only the order is seeded), so two seeds offer the same work
// and differ in order, targets and values, not in how many cold Prepares a
// window happens to contain.
var mixBlock = [numOpKinds]int{opSolve: 70, opBatch: 10, opPatch: 12, opRegister: 5, opGet: 3}

const (
	mixBlockLen = 100
	// streamSolvesPerBlock of the 70 single solves go to the streaming
	// systems, so PATCHed values are actually solved against.
	streamSolvesPerBlock = 12
	batchSize            = 8
	rhsPoolSize          = 8
	// deleteDelayNs is how long after its register's due time a dynamic
	// system is deleted: short enough that live systems stay well under each
	// shard's cache capacity of 8.
	deleteDelayNs = 300e6
)

// Cluster system roster. Static systems only ever see solves; streaming ones
// also take PATCHes. All shapes are distinct so no two systems share a
// sparsity pattern (the cache adopts pipelines by pattern).
var (
	staticSpecs = []string{"poisson3d:12", "poisson3d:16", "stencil27:8", "poisson2d:48"}
	streamSpecs = []string{"poisson3d:10", "poisson3d:14", "poisson2d:40"}
)

// op is one scheduled request. Bodies and paths are complete before the
// window starts; Sys/RHS/NewM carry what the oracle needs.
type op struct {
	Kind   opKind
	DueNs  int64
	Method string
	Path   string
	Body   []byte

	Sys    int         // index into mixPlan.Systems (solve, batch, patch, get)
	RHS    [][]float64 // right-hand sides sent (solve: 1, batch: batchSize)
	NewM   *sparse.Matrix
	Dyn    *system // register/delete: the dynamic system
	After  int     // delete: index of the register op it waits for, else -1
	Warmup bool    // scheduled before the measured window
}

// mixPlan is everything cluster-mixed will send, in due order.
type mixPlan struct {
	Systems   []*system // static then streaming
	NumStatic int
	Ops       []op
}

// dynDims enumerates every a×b×c box with sides in [5,10] except cubes the
// roster uses, shuffled; registers draw from it without replacement, so no
// dynamic system repeats a shape within a run.
func dynDims(r *rand.Rand) [][3]int {
	var dims [][3]int
	for a := 5; a <= 10; a++ {
		for b := 5; b <= 10; b++ {
			for c := 5; c <= 10; c++ {
				if a == b && b == c && a == 10 {
					continue // poisson3d:10 is a streaming system
				}
				dims = append(dims, [3]int{a, b, c})
			}
		}
	}
	r.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	return dims
}

// buildMixPlan generates the cluster-mixed schedule: warmupOps ops before
// time zero of the window and windowOps after it, at rate scheduled ops/s.
// cgConfig is the per-system config of the static systems; streaming and
// dynamic systems use the service default.
func buildMixPlan(seed int64, rate float64, warmupOps, windowOps int, cgConfig json.RawMessage) (*mixPlan, error) {
	p := &mixPlan{NumStatic: len(staticSpecs)}
	for _, spec := range staticSpecs {
		s, err := genSystem(spec, cgConfig)
		if err != nil {
			return nil, err
		}
		p.Systems = append(p.Systems, s)
	}
	for _, spec := range streamSpecs {
		s, err := genSystem(spec, nil)
		if err != nil {
			return nil, err
		}
		p.Systems = append(p.Systems, s)
	}

	// Pre-encoded solve and batch bodies, shared by every op that sends them.
	pools := make([][][]float64, len(p.Systems))
	solveBodies := make([][][]byte, len(p.Systems))
	batchBodies := make([][][]byte, p.NumStatic)
	for i, s := range p.Systems {
		pools[i] = gaussianRHS(subSeed(seed, 100+int64(i)), s.M.N, rhsPoolSize)
		solveBodies[i] = make([][]byte, rhsPoolSize)
		for k, b := range pools[i] {
			solveBodies[i][k] = solveBody(b)
		}
	}
	rot := func(i, k int) [][]float64 {
		bs := make([][]float64, batchSize)
		for j := range bs {
			bs[j] = pools[i][(k+j)%rhsPoolSize]
		}
		return bs
	}
	for i := 0; i < p.NumStatic; i++ {
		batchBodies[i] = make([][]byte, rhsPoolSize)
		for k := range batchBodies[i] {
			batchBodies[i][k] = batchBody(rot(i, k))
		}
	}

	order := subSeed(seed, 1)
	jitter := subSeed(seed, 2)
	values := subSeed(seed, 3)
	dims := dynDims(subSeed(seed, 4))
	nextDim := 0
	base := make([]*sparse.Matrix, len(p.Systems))
	for i, s := range p.Systems {
		base[i] = s.M
	}

	// Round-robin target and RHS counters keep every system's share of the
	// work equal across seeds; only which op gets which is shuffled.
	var nStatic, nStream, nBatch, nPatch, nGet, nRHS int
	block := func() []opKind {
		var blk []opKind
		for k, c := range mixBlock {
			for j := 0; j < c; j++ {
				blk = append(blk, opKind(k))
			}
		}
		order.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		return blk
	}
	// The window is whole blocks from its first op, so its mix is exact; the
	// warm-up is the tail of the blocks before it.
	var warm, kinds []opKind
	for len(warm) < warmupOps {
		warm = append(block(), warm...)
	}
	kinds = append(kinds, warm[len(warm)-warmupOps:]...)
	for len(kinds) < warmupOps+windowOps {
		kinds = append(kinds, block()...)
	}
	kinds = kinds[:warmupOps+windowOps]

	solveInBlock := 0
	for i, kind := range kinds {
		if i >= warmupOps && (i-warmupOps)%mixBlockLen == 0 {
			solveInBlock = 0
		}
		due := int64((float64(i-warmupOps) + jitter.Float64()) / rate * 1e9)
		o := op{Kind: kind, DueNs: due, After: -1, Warmup: i < warmupOps}
		switch kind {
		case opSolve:
			// Spread the streaming solves evenly through the block's solves.
			const every = 70 / streamSolvesPerBlock
			if solveInBlock%every == every-1 && solveInBlock/every < streamSolvesPerBlock {
				o.Sys = p.NumStatic + nStream%len(streamSpecs)
				nStream++
			} else {
				o.Sys = nStatic % p.NumStatic
				nStatic++
			}
			solveInBlock++
			k := nRHS % rhsPoolSize
			nRHS++
			o.Method, o.Path = "POST", "/v1/systems/"+p.Systems[o.Sys].ID+"/solve"
			o.Body, o.RHS = solveBodies[o.Sys][k], pools[o.Sys][k:k+1]
		case opBatch:
			o.Sys = nBatch % p.NumStatic
			k := (nBatch / p.NumStatic) % rhsPoolSize
			nBatch++
			o.Method, o.Path = "POST", "/v1/systems/"+p.Systems[o.Sys].ID+"/solve"
			o.Body, o.RHS = batchBodies[o.Sys][k], rot(o.Sys, k)
		case opPatch:
			o.Sys = p.NumStatic + nPatch%len(streamSpecs)
			nPatch++
			o.NewM = perturbed(base[o.Sys], values)
			o.Method, o.Path = "PATCH", "/v1/systems/"+p.Systems[o.Sys].ID
			o.Body = patchBody(o.NewM)
		case opGet:
			o.Sys = nGet % len(p.Systems)
			nGet++
			o.Method, o.Path = "GET", "/v1/systems/"+p.Systems[o.Sys].ID
		case opRegister:
			if nextDim >= len(dims) {
				return nil, fmt.Errorf("schedule needs more than %d distinct register shapes", len(dims))
			}
			d := dims[nextDim]
			nextDim++
			m := sparse.Poisson3D(d[0], d[1], d[2])
			for r := range m.Diag {
				m.Diag[r] *= 1 + 0.2*values.Float64()
			}
			o.Dyn = &system{M: m, ID: m.FingerprintString()}
			o.Method, o.Path, o.Body = "POST", "/v1/systems", entriesBody(m)
		}
		p.Ops = append(p.Ops, o)
	}
	// Each register is followed by the DELETE of the same system.
	// One due after the window is pulled back to its end, so the window's
	// elapsed time does not grow a tail of trailing DELETEs.
	n := len(p.Ops)
	end := int64(float64(windowOps) / rate * 1e9)
	for i := 0; i < n; i++ {
		if r := p.Ops[i]; r.Kind == opRegister {
			due := min(r.DueNs+deleteDelayNs, max(end, r.DueNs+1))
			p.Ops = append(p.Ops, op{
				Kind: opDelete, DueNs: due, After: i, Warmup: due < 0,
				Method: "DELETE", Path: "/v1/systems/" + r.Dyn.ID, Dyn: r.Dyn,
			})
		}
	}
	// Stable sort keeps After indices valid: deletes were appended after all
	// scheduled ops, and a delete is always due after its register.
	idx := make([]int, len(p.Ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.Ops[idx[a]].DueNs < p.Ops[idx[b]].DueNs })
	pos := make([]int, len(p.Ops))
	sorted := make([]op, len(p.Ops))
	for newI, oldI := range idx {
		sorted[newI] = p.Ops[oldI]
		pos[oldI] = newI
	}
	for i := range sorted {
		if sorted[i].After >= 0 {
			sorted[i].After = pos[sorted[i].After]
		}
	}
	p.Ops = sorted
	return p, nil
}
