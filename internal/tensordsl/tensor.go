package tensordsl

import (
	"fmt"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// Tensor is a typed, tile-mapped array. Two mappings exist:
//
//   - distributed: each tile holds a contiguous interval of the elements
//     (sizes[t] elements on tile t, concatenated in tile order);
//   - replicated: every tile logically holds the same n elements (used for
//     scalars like dot-product results and solver coefficients).
//
// Tile memory is accounted against the machine when the tensor is created.
type Tensor struct {
	s     *Session
	Name  string
	dt    ipu.Scalar
	repl  bool
	n     int
	sizes []int // distributed: per-tile local length
	offs  []int // distributed: global offset of tile's interval
	bufs  []*graph.Buffer
	rbuf  *graph.Buffer // replicated storage (single authoritative copy)
}

// NewTensor creates a distributed tensor with sizes[t] elements on tile t.
func (s *Session) NewTensor(name string, dt ipu.Scalar, sizes []int) (*Tensor, error) {
	if len(sizes) != s.M.NumTiles() {
		return nil, fmt.Errorf("tensordsl: %d sizes for %d tiles", len(sizes), s.M.NumTiles())
	}
	t := &Tensor{s: s, Name: name, dt: dt, sizes: append([]int(nil), sizes...)}
	t.offs = make([]int, len(sizes))
	t.bufs = make([]*graph.Buffer, len(sizes))
	for tile, sz := range sizes {
		t.offs[tile] = t.n
		t.n += sz
		if sz > 0 {
			if err := s.M.Alloc(tile, sz*dt.Size()); err != nil {
				return nil, fmt.Errorf("tensordsl: tensor %q: %w", name, err)
			}
			t.bufs[tile] = graph.NewBuffer(dt, sz)
			if s.Registry != nil {
				s.Registry.RegisterBuffer(tile, name, t.bufs[tile])
			}
		}
	}
	return t, nil
}

// MustTensor is NewTensor panicking on error (out-of-SRAM is a build-time
// failure of the graph, like Poplar's).
func (s *Session) MustTensor(name string, dt ipu.Scalar, sizes []int) *Tensor {
	t, err := s.NewTensor(name, dt, sizes)
	if err != nil {
		panic(err)
	}
	return t
}

// NewReplicated creates a replicated tensor of n elements present on every
// tile (memory is charged on all tiles).
func (s *Session) NewReplicated(name string, dt ipu.Scalar, n int) (*Tensor, error) {
	t := &Tensor{s: s, Name: name, dt: dt, repl: true, n: n}
	for tile := 0; tile < s.M.NumTiles(); tile++ {
		if err := s.M.Alloc(tile, n*dt.Size()); err != nil {
			return nil, fmt.Errorf("tensordsl: replicated %q: %w", name, err)
		}
	}
	t.rbuf = graph.NewBuffer(dt, n)
	return t, nil
}

// MustReplicated is NewReplicated panicking on error.
func (s *Session) MustReplicated(name string, dt ipu.Scalar, n int) *Tensor {
	t, err := s.NewReplicated(name, dt, n)
	if err != nil {
		panic(err)
	}
	return t
}

// MustScalar creates a replicated single-element tensor.
func (s *Session) MustScalar(name string, dt ipu.Scalar) *Tensor {
	return s.MustReplicated(name, dt, 1)
}

// Like creates an uninitialized tensor with the same mapping and dtype.
func (t *Tensor) Like(name string) *Tensor {
	if t.repl {
		return t.s.MustReplicated(name, t.dt, t.n)
	}
	return t.s.MustTensor(name, t.dt, t.sizes)
}

// LikeTyped creates a same-mapped tensor with a different scalar type.
func (t *Tensor) LikeTyped(name string, dt ipu.Scalar) *Tensor {
	if t.repl {
		return t.s.MustReplicated(name, dt, t.n)
	}
	return t.s.MustTensor(name, dt, t.sizes)
}

// Len returns the global element count.
func (t *Tensor) Len() int { return t.n }

// Type returns the scalar type.
func (t *Tensor) Type() ipu.Scalar { return t.dt }

// Replicated reports whether the tensor is replicated.
func (t *Tensor) Replicated() bool { return t.repl }

// LocalSize returns the number of elements on tile.
func (t *Tensor) LocalSize(tile int) int {
	if t.repl {
		return t.n
	}
	return t.sizes[tile]
}

// Buf exposes the tile-local buffer (the replicated buffer for replicated
// tensors). Solver codelets use it to wire custom vertices.
func (t *Tensor) Buf(tile int) *graph.Buffer {
	if t.repl {
		return t.rbuf
	}
	return t.bufs[tile]
}

// sameMapping reports whether two distributed tensors share a tile mapping.
func (t *Tensor) sameMapping(u *Tensor) bool {
	if t.repl != u.repl || t.n != u.n {
		return false
	}
	if t.repl {
		return true
	}
	for i := range t.sizes {
		if t.sizes[i] != u.sizes[i] {
			return false
		}
	}
	return true
}

// --- host-side data access (setup and verification; not program steps) -----

// SetHost writes vals into the tensor immediately (host writes before the
// program runs; use CopyFrom inside programs).
func (t *Tensor) SetHost(vals []float64) error {
	if len(vals) != t.n {
		return fmt.Errorf("tensordsl: SetHost %q: %d values for %d elements", t.Name, len(vals), t.n)
	}
	if t.repl {
		for i, v := range vals {
			t.rbuf.Set(i, v)
		}
		return nil
	}
	for tile, buf := range t.bufs {
		for i := 0; i < t.sizes[tile]; i++ {
			buf.Set(i, vals[t.offs[tile]+i])
		}
	}
	return nil
}

// FillHost sets every element to v immediately (host write), without
// allocating — the re-solve path's way to zero the initial guess.
func (t *Tensor) FillHost(v float64) {
	if t.repl {
		t.rbuf.Fill(v)
		return
	}
	for _, buf := range t.bufs {
		if buf != nil {
			buf.Fill(v)
		}
	}
}

// HostInto reads the tensor's current contents into dst without allocating.
func (t *Tensor) HostInto(dst []float64) error {
	if len(dst) != t.n {
		return fmt.Errorf("tensordsl: HostInto %q: %d slots for %d elements", t.Name, len(dst), t.n)
	}
	if t.repl {
		for i := range dst {
			dst[i] = t.rbuf.Get(i)
		}
		return nil
	}
	for tile, buf := range t.bufs {
		for i := 0; i < t.sizes[tile]; i++ {
			dst[t.offs[tile]+i] = buf.Get(i)
		}
	}
	return nil
}

// Host reads the tensor's current contents into a fresh float64 slice.
func (t *Tensor) Host() []float64 {
	out := make([]float64, t.n)
	if t.repl {
		for i := range out {
			out[i] = t.rbuf.Get(i)
		}
		return out
	}
	for tile, buf := range t.bufs {
		for i := 0; i < t.sizes[tile]; i++ {
			out[t.offs[tile]+i] = buf.Get(i)
		}
	}
	return out
}

// Value returns element 0 as float64 — the idiom for reading scalar tensors
// in host callbacks and While conditions.
func (t *Tensor) Value() float64 {
	if t.repl {
		return t.rbuf.Get(0)
	}
	for tile, buf := range t.bufs {
		if t.sizes[tile] > 0 {
			return buf.Get(0)
		}
	}
	return 0
}

// SetValue writes element 0 immediately (host write).
func (t *Tensor) SetValue(v float64) {
	if t.repl {
		t.rbuf.Set(0, v)
		return
	}
	for tile, buf := range t.bufs {
		if t.sizes[tile] > 0 {
			buf.Set(0, v)
			return
		}
	}
}
