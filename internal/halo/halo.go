// Package halo implements the paper's matrix reordering strategy for
// blockwise halo exchanges (paper §IV).
//
// The matrix is viewed as a mesh of cells (one per row) partitioned across
// tiles. Cells are classified per tile as:
//
//   - interior: owned and required only by the owning tile,
//   - separator: owned by the tile but required by neighbors,
//   - halo: owned by a neighbor but required by the tile.
//
// Separator cells with an identical set of requiring tiles form a region —
// the largest group of cells for which a consistent ordering can be
// established across all involved tiles. Each separator region has one
// mirrored halo region on every requiring tile with the cells in the same
// order, so a halo exchange is a plain blockwise broadcast: one communication
// instruction per region, no local reordering, directly exploiting the IPU's
// all-to-all exchange fabric.
//
// The package produces (a) the per-tile memory layout (interior cells, then
// separator regions, then halo regions), (b) the global permutation the
// reordering induces, (c) the blockwise exchange program, and (d) localized
// per-tile submatrices whose column indices point into the local layout.
package halo

import (
	"cmp"
	"encoding/binary"
	"slices"

	"ipusparse/internal/partition"
	"ipusparse/internal/sparse"
)

// Region is a maximal group of separator cells on one tile that is required
// by the same set of neighboring tiles.
type Region struct {
	ID       int
	Owner    int   // owning tile
	Involved []int // requiring tiles, sorted ascending
	Rows     []int // member rows (global ids), in the canonical shared order
}

// RegionRef locates a region's block inside a tile's local value arrays.
type RegionRef struct {
	Region int // index into Layout.Regions
	Offset int // local element offset
	Len    int // number of cells
}

// TileLayout is the memory layout of one tile's slice of a distributed
// vector: interior cells first, then separator regions, then halo regions
// (paper Fig. 3b).
type TileLayout struct {
	Tile        int
	NumInterior int
	NumOwned    int   // interior + separator cells
	NumHalo     int   // halo cells
	Owned       []int // global rows in local order (len NumOwned)
	Halo        []int // global halo rows in local order (len NumHalo)
	SepRegions  []RegionRef
	HaloRegions []RegionRef
}

// Total returns the tile's local vector length (owned + halo).
func (t *TileLayout) Total() int { return t.NumOwned + t.NumHalo }

// Transfer is one blockwise exchange instruction: Len elements starting at
// SrcOff in the owner tile's local vector are broadcast to each destination
// tile at its DstOffs offset. Offsets are in elements; the engine converts to
// bytes with the tensor's scalar size.
type Transfer struct {
	Region  int
	SrcTile int
	SrcOff  int
	Len     int
	Dst     []TransferDst
}

// TransferDst is one destination of a broadcast transfer.
type TransferDst struct {
	Tile int
	Off  int
}

// Layout is the complete reordering result for one (matrix, partition) pair.
type Layout struct {
	NumTiles int
	N        int // global rows
	Regions  []Region
	Tiles    []TileLayout

	// Owner[g] is the owning tile of global row g; LocalIndex[g] its local
	// index in the owner's layout.
	Owner      []int
	LocalIndex []int

	// Program is the blockwise halo-exchange communication program, one
	// instruction per separator region.
	Program []Transfer
}

// Build computes the reordering and exchange program for matrix m under
// partition p. The matrix pattern must be structurally symmetric in terms of
// communication (an entry (i,j) makes tile(i) require row j); asymmetric
// patterns are handled by the union of requirements.
//
// Regions are numbered in order of their first row, and a row finds its
// region through a map keyed by the region key: the owner followed by the
// sorted requiring tiles, each as a uvarint, in one reused buffer. Uvarints
// are self-delimiting, so distinct (owner, requirers) pairs never share a
// key, and the lookup m[string(buf)] does not allocate; only a new region's
// key is copied into the map.
func Build(m *sparse.Matrix, p *partition.Partition) (*Layout, error) {
	if err := p.Validate(m.N); err != nil {
		return nil, err
	}
	n, nt, owner := m.N, p.NumParts, p.Assign
	l := &Layout{
		NumTiles:   nt,
		N:          n,
		Owner:      owner,
		LocalIndex: make([]int, n),
		Tiles:      make([]TileLayout, nt),
	}

	// Step 1: identify separator cells and their requiring tiles.
	// req[start[g]:end[g]] holds the distinct tiles (!= owner) that reference
	// row g; start comes from the count of cross-tile entries in column g,
	// an upper bound on that set.
	start := make([]int, n+1)
	for i := 0; i < n; i++ {
		lo, hi := m.RowRange(i)
		for _, j := range m.Cols[lo:hi] {
			if owner[j] != owner[i] {
				start[j+1]++
			}
		}
	}
	for g := 0; g < n; g++ {
		start[g+1] += start[g]
	}
	req := make([]int, start[n])
	end := append([]int(nil), start[:n]...)
	for i := 0; i < n; i++ {
		ti := owner[i]
		lo, hi := m.RowRange(i)
		for _, j := range m.Cols[lo:hi] {
			if owner[j] != ti && !slices.Contains(req[start[j]:end[j]], ti) {
				req[end[j]] = ti
				end[j]++
			}
		}
	}

	// Step 2: group separator cells with identical requiring sets into
	// regions; step 3 creates the mirrored halo regions implicitly via the
	// shared Region objects.
	regionOf := make(map[string]int32)
	rowRegion := make([]int32, n) // -1 for interior cells
	var (
		key                []byte
		sizes              []int
		sepCells, involved int
	)
	for g := 0; g < n; g++ {
		rq := req[start[g]:end[g]]
		if len(rq) == 0 {
			rowRegion[g] = -1
			continue
		}
		slices.Sort(rq)
		key = binary.AppendUvarint(key[:0], uint64(owner[g]))
		for _, t := range rq {
			key = binary.AppendUvarint(key, uint64(t))
		}
		id, ok := regionOf[string(key)]
		if !ok {
			id = int32(len(l.Regions))
			regionOf[string(key)] = id
			l.Regions = append(l.Regions, Region{ID: int(id), Owner: owner[g], Involved: rq})
			sizes = append(sizes, 0)
			involved += len(rq)
		}
		rowRegion[g] = id
		sizes[id]++
		sepCells++
	}
	// Every region's rows and involved set are windows of one array each;
	// the rows are filled below.
	rows, inv := make([]int, sepCells), make([]int, 0, involved)
	for id := range l.Regions {
		r := &l.Regions[id]
		r.Rows, rows = rows[:0:sizes[id]], rows[sizes[id]:]
		inv = append(inv, r.Involved...)
		r.Involved = inv[len(inv)-len(r.Involved) : len(inv) : len(inv)]
	}

	// Deterministic region order: by owner, then by involved-set.
	order := make([]int, len(l.Regions))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := &l.Regions[a], &l.Regions[b]
		if c := cmp.Compare(ra.Owner, rb.Owner); c != 0 {
			return c
		}
		return slices.Compare(ra.Involved, rb.Involved)
	})

	// Per-tile layout: interior cells (ascending global id), then the tile's
	// separator regions in canonical order, then halo regions in canonical
	// order of (owner, involved). Owned and Halo are windows of one array
	// each, sized by a count first.
	numOwned, numHalo := make([]int, nt), make([]int, nt)
	for _, t := range owner {
		numOwned[t]++
	}
	haloCells := 0
	for id, r := range l.Regions {
		for _, t := range r.Involved {
			numHalo[t] += sizes[id]
		}
		haloCells += sizes[id] * len(r.Involved)
	}
	owned, halo := make([]int, n), make([]int, haloCells)
	for t := range l.Tiles {
		tl := &l.Tiles[t]
		tl.Tile = t
		tl.Owned, owned = owned[:0:numOwned[t]], owned[numOwned[t]:]
		tl.Halo, halo = halo[:0:numHalo[t]], halo[numHalo[t]:]
	}
	// Step 4: canonical order within each region: ascending global row id.
	// All appends stay within their windows.
	for g, id := range rowRegion {
		if id >= 0 {
			l.Regions[id].Rows = append(l.Regions[id].Rows, g)
		} else {
			tl := &l.Tiles[owner[g]]
			tl.Owned = append(tl.Owned, g)
		}
	}
	for t := range l.Tiles {
		l.Tiles[t].NumInterior = len(l.Tiles[t].Owned)
	}

	// Blockwise exchange program: one broadcast instruction per region, its
	// offsets read off the layout as the blocks are placed.
	l.Program = make([]Transfer, len(order))
	for pi, id := range order {
		r := &l.Regions[id]
		tl := &l.Tiles[r.Owner]
		tl.SepRegions = append(tl.SepRegions, RegionRef{
			Region: id, Offset: len(tl.Owned), Len: len(r.Rows),
		})
		l.Program[pi] = Transfer{Region: id, SrcTile: r.Owner, SrcOff: len(tl.Owned), Len: len(r.Rows)}
		tl.Owned = append(tl.Owned, r.Rows...)
	}
	for t := range l.Tiles {
		tl := &l.Tiles[t]
		tl.NumOwned = len(tl.Owned)
		for li, g := range tl.Owned {
			l.LocalIndex[g] = li
		}
	}
	dst := make([]TransferDst, 0, involved)
	for pi, id := range order {
		r := &l.Regions[id]
		for _, t := range r.Involved {
			tl := &l.Tiles[t]
			off := tl.NumOwned + len(tl.Halo)
			tl.HaloRegions = append(tl.HaloRegions, RegionRef{Region: id, Offset: off, Len: len(r.Rows)})
			tl.Halo = append(tl.Halo, r.Rows...)
			dst = append(dst, TransferDst{Tile: t, Off: off})
		}
		l.Program[pi].Dst = dst[len(dst)-len(r.Involved) : len(dst) : len(dst)]
	}
	for t := range l.Tiles {
		l.Tiles[t].NumHalo = len(l.Tiles[t].Halo)
	}
	return l, nil
}

// Permutation returns the global row permutation induced by the layout:
// perm[old] = new, where new indices enumerate tile 0's owned cells in local
// order, then tile 1's, and so on. This is the "matrix reordering" the paper
// applies before loading the matrix onto the device.
func (l *Layout) Permutation() []int {
	perm := make([]int, l.N)
	next := 0
	for t := range l.Tiles {
		for _, g := range l.Tiles[t].Owned {
			perm[g] = next
			next++
		}
	}
	return perm
}

// Stats summarizes the layout for reporting and the halo ablation.
type Stats struct {
	Regions        int
	SeparatorCells int
	HaloCells      int // sum over tiles (cells duplicated per requiring tile)
	Instructions   int // communication-program size, blockwise
	PerCellInstr   int // communication-program size if issued per cell
	MaxInvolved    int // largest involved-tile set
}

// ComputeStats gathers layout statistics.
func (l *Layout) ComputeStats() Stats {
	s := Stats{Regions: len(l.Regions), Instructions: len(l.Program)}
	for i := range l.Regions {
		r := &l.Regions[i]
		s.SeparatorCells += len(r.Rows)
		s.HaloCells += len(r.Rows) * len(r.Involved)
		s.PerCellInstr += len(r.Rows)
		if len(r.Involved) > s.MaxInvolved {
			s.MaxInvolved = len(r.Involved)
		}
	}
	return s
}

// PerCellProgram returns the Burchard-style alternative exchange program with
// one instruction per separator cell (still broadcast to all requiring
// tiles). It exists for the ablation that quantifies the benefit of the
// paper's blockwise strategy.
func (l *Layout) PerCellProgram() []Transfer {
	var prog []Transfer
	for _, tr := range l.Program {
		for e := 0; e < tr.Len; e++ {
			one := Transfer{
				Region:  tr.Region,
				SrcTile: tr.SrcTile,
				SrcOff:  tr.SrcOff + e,
				Len:     1,
			}
			for _, d := range tr.Dst {
				one.Dst = append(one.Dst, TransferDst{Tile: d.Tile, Off: d.Off + e})
			}
			prog = append(prog, one)
		}
	}
	return prog
}
