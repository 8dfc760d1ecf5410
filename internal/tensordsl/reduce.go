package tensordsl

import (
	"math"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/twofloat"
)

// Reduce sums the expression into a replicated scalar tensor using the
// two-phase device reduction: per-tile partial sums (compute), a gather of
// the partials to tile 0 (exchange), the final combine (compute), and a
// broadcast of the scalar back to all tiles (exchange). Partial accumulation
// happens in the expression's evaluation type, so reductions over float32
// data round like the hardware while double-word reductions retain extended
// precision.
func (s *Session) Reduce(v interface{}) *Tensor {
	return s.reduce(v, false, "Reduce")
}

// ReduceLabeled is Reduce with an explicit profiling label.
func (s *Session) ReduceLabeled(v interface{}, label string) *Tensor {
	return s.reduce(v, false, label)
}

// ReduceMaxAbs reduces to the maximum absolute value (infinity norm).
func (s *Session) ReduceMaxAbs(v interface{}) *Tensor {
	return s.reduce(v, true, "Reduce")
}

// Dot returns the inner product of two same-mapped tensors as a replicated
// scalar: Reduce(a*b).
func (s *Session) Dot(a, b *Tensor) *Tensor { return s.Reduce(Mul(a, b)) }

// DotLabeled is Dot with an explicit profiling label.
func (s *Session) DotLabeled(a, b *Tensor, label string) *Tensor {
	return s.ReduceLabeled(Mul(a, b), label)
}

// Norm2 returns the Euclidean norm sqrt(sum(a*a)) as a replicated scalar.
func (s *Session) Norm2(a *Tensor) *Tensor {
	sq := s.Reduce(Mul(a, a))
	out := sq.Like(s.tempName() + ":norm")
	out.Assign(Sqrt(sq))
	return out
}

func (s *Session) reduce(v interface{}, maxAbs bool, label string) *Tensor {
	e := E(v)
	sh := e.shape()
	out := s.MustScalar(s.tempName()+":red", e.dt)
	nt := s.M.NumTiles()
	partials := make([]twofloat.DW, nt)
	partsF64 := make([]float64, nt)
	active := make([]bool, nt)
	evalType := e.dt

	// Phase 1: per-tile partial reduction. Like materialized codelets, the
	// reduction vertex fans its local range out across the six workers
	// (each worker folds a chunk; the fold tree costs a few extra adds).
	cs := graph.NewComputeSet(out.Name+":partial", label)
	addCost := ipu.Cost(ipu.OpAdd, evalType)
	workers := uint64(s.M.Config().WorkersPerTile)
	partialCost := func(n int) uint64 {
		work := uint64(n) * (e.perElementCost(evalType) + addCost)
		return (work+workers-1)/workers + workers*addCost + workerStart
	}
	if sh == nil {
		// Fully replicated expression: reduce on tile 0 only.
		n := 1
		if leaf := e.anyLeaf(); leaf != nil {
			n = leaf.n
		}
		cost := partialCost(n)
		active[0] = true
		sc := &evalScratch{}
		cs.Add(0, graph.CodeletFunc(func() uint64 {
			sc.reset()
			partials[0], partsF64[0] = reduceVec(evalVec(e, -1, evalType, n, sc), maxAbs)
			return cost
		}))
	} else {
		for tile := 0; tile < nt; tile++ {
			n := sh.sizes[tile]
			if n == 0 {
				continue
			}
			active[tile] = true
			cost := partialCost(n)
			sc := &evalScratch{}
			cs.Add(tile, graph.CodeletFunc(func() uint64 {
				sc.reset()
				partials[tile], partsF64[tile] = reduceVec(evalVec(e, tile, evalType, n, sc), maxAbs)
				return cost
			}))
		}
	}
	sink := &graph.PartialSink{DW: partials, F64: partsF64}
	cs.NativeKernel = s.nativeReducePartial(e, sh, evalType, maxAbs, sink, active)
	s.Append(graph.Compute{Set: cs})

	// Phase 2: gather partials to tile 0.
	var gather []graph.Move
	for tile := 1; tile < nt; tile++ {
		if active[tile] {
			gather = append(gather, graph.Move{
				SrcTile: tile, DstTiles: []int{0}, Bytes: evalType.Size(),
			})
		}
	}
	if len(gather) > 0 {
		s.Append(graph.Exchange{Name: out.Name + ":gather", Label: label, Moves: gather})
	}

	// Phase 3: final combine on tile 0, writing the replicated buffer.
	final := graph.NewComputeSet(out.Name+":final", label)
	combineCost := uint64(nt)*addCost + workerStart
	final.Add(0, graph.CodeletFunc(func() uint64 {
		writeCombined(out, partials, partsF64, active, evalType, maxAbs)
		return combineCost
	}))
	final.NativeKernel = graph.OpaqueKernel(func() {
		writeCombined(out, partials, partsF64, active, evalType, maxAbs)
	}, nil, []*graph.Buffer{out.rbuf})
	final.NativeKernel.Sink = sink
	s.Append(graph.Compute{Set: final})

	// Phase 4: broadcast the scalar to all tiles (replicated tensors live on
	// every tile; a single blockwise broadcast fills them).
	dst := make([]int, 0, nt-1)
	for tile := 1; tile < nt; tile++ {
		dst = append(dst, tile)
	}
	if len(dst) > 0 {
		s.Append(graph.Exchange{
			Name:  out.Name + ":bcast",
			Label: label,
			Moves: []graph.Move{{SrcTile: 0, DstTiles: dst, Bytes: evalType.Size()}},
		})
	}
	return out
}

// reduceVec folds a vector in its own precision, returning both a double-word
// and a float64 view of the partial result.
func reduceVec(v vec, maxAbs bool) (twofloat.DW, float64) {
	switch v.k {
	case ipu.F32:
		if maxAbs {
			var m float32
			for _, x := range v.f {
				if x < 0 {
					x = -x
				}
				if x > m {
					m = x
				}
			}
			return twofloat.FromFloat32(m), float64(m)
		}
		var s float32
		for _, x := range v.f {
			s += x // rounds at float32, as the hardware does
		}
		return twofloat.FromFloat32(s), float64(s)
	case ipu.DW:
		if maxAbs {
			var m twofloat.DW
			for i := range v.hi {
				x := twofloat.DW{Hi: v.hi[i], Lo: v.lo[i]}.Abs()
				if x.Cmp(m) > 0 {
					m = x
				}
			}
			return m, m.Float64()
		}
		var s twofloat.DW
		for i := range v.hi {
			s = twofloat.Add(s, twofloat.DW{Hi: v.hi[i], Lo: v.lo[i]})
		}
		return s, s.Float64()
	default:
		if maxAbs {
			var m float64
			for _, x := range v.p {
				if a := math.Abs(x); a > m {
					m = a
				}
			}
			return twofloat.FromFloat64(m), m
		}
		var s float64
		for _, x := range v.p {
			s += x
		}
		return twofloat.FromFloat64(s), s
	}
}

func writeCombined(out *Tensor, partials []twofloat.DW, partsF64 []float64, active []bool, k ipu.Scalar, maxAbs bool) {
	switch k {
	case ipu.F32:
		var s float32
		var m float32
		for t, a := range active {
			if !a {
				continue
			}
			x := float32(partsF64[t])
			s += x
			if x > m {
				m = x
			}
		}
		if maxAbs {
			out.rbuf.Set(0, float64(m))
		} else {
			out.rbuf.Set(0, float64(s))
		}
	case ipu.DW:
		var s twofloat.DW
		var m twofloat.DW
		for t, a := range active {
			if !a {
				continue
			}
			s = twofloat.Add(s, partials[t])
			if partials[t].Cmp(m) > 0 {
				m = partials[t]
			}
		}
		if maxAbs {
			out.rbuf.SetDW(0, m)
		} else {
			out.rbuf.SetDW(0, s)
		}
	default:
		var s, m float64
		for t, a := range active {
			if !a {
				continue
			}
			s += partsF64[t]
			if partsF64[t] > m {
				m = partsF64[t]
			}
		}
		if maxAbs {
			out.rbuf.Set(0, m)
		} else {
			out.rbuf.Set(0, s)
		}
	}
}
