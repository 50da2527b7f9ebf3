// Package supercover merges the coverings of individual polygons into a
// single "super covering" that represents the whole polygon set (paper §II).
//
// The merge removes duplicate cells and resolves conflicts between
// overlapping cells: when a cell of one polygon is an ancestor of a cell of
// another, the ancestor's references are pushed down until the resulting
// cell set is prefix-free — no cell contains another. As the paper notes,
// this "may require additional refinement steps and potentially increases
// the total number of cells": descending an ancestor produces sibling "gap"
// cells carrying only the inherited references.
//
// Prefix-freeness is what lets a lookup return at most one cell.
package supercover

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
)

// MaxPolygonID is the largest polygon identifier the pipeline supports; the
// trie inlines polygon ids as 30-bit values (paper §II: "index up to 2^30
// polygons").
const MaxPolygonID = 1<<30 - 1

// Ref is a polygon reference attached to a cell: the polygon id plus the
// interior flag distinguishing true hits from candidate hits.
type Ref struct {
	PolygonID uint32
	// Interior is true when the cell lies entirely inside the polygon, so
	// a point matching the cell is a true hit for this polygon.
	Interior bool
}

// SuperCovering is the merged covering of a polygon set: a sorted,
// prefix-free sequence of cells, each carrying one or more polygon
// references. Reference lists are stored in one shared pool to keep the
// per-cell overhead at two integers.
type SuperCovering struct {
	cells  []cellid.ID
	refOff []uint32 // len(cells)+1 offsets into refs
	refs   []Ref
}

// NumCells returns the number of cells in the super covering.
func (s *SuperCovering) NumCells() int { return len(s.cells) }

// NumRefs returns the total number of polygon references across all cells.
func (s *SuperCovering) NumRefs() int { return len(s.refs) }

// Cell returns the i-th cell in id order.
func (s *SuperCovering) Cell(i int) cellid.ID { return s.cells[i] }

// Refs returns the polygon references of the i-th cell. The returned slice
// aliases internal storage and must not be modified.
func (s *SuperCovering) Refs(i int) []Ref {
	return s.refs[s.refOff[i]:s.refOff[i+1]]
}

// Lookup returns the references of the unique cell containing the given
// leaf cell, or ok=false when the leaf is not covered. This is the
// reference (binary search) lookup the Adaptive Cell Trie is benchmarked
// against; it costs O(log n) comparisons versus the trie's O(k/8) accesses.
func (s *SuperCovering) Lookup(leaf cellid.ID) (refs []Ref, ok bool) {
	i := sort.Search(len(s.cells), func(i int) bool { return s.cells[i].RangeMax() >= leaf })
	if i == len(s.cells) || !s.cells[i].Contains(leaf) {
		return nil, false
	}
	return s.Refs(i), true
}

// Builder accumulates per-polygon coverings and merges them.
type Builder struct {
	// coverings are Add's arguments, which Build expands into pairs — in
	// one allocation, their sizes being known by then.
	coverings []polygonCovering
	pairs     []pair // AddCell's arguments
}

type polygonCovering struct {
	id  uint32
	cov *cover.Covering
}

// pair is one (cell, reference) input of the merge, stored as its sort key,
// least significant word first:
//
//	pair[aux] = level<<32 | polygonID<<1 | interior
//	pair[pos] = index of the cell's first leaf, face in the top bits (RangeMin >> 1)
//
// Sorting by (pos, aux) yields "interval order": by first leaf, shallower
// (larger) cells before the cells they contain, then by polygon id with a
// candidate reference ahead of an interior one. A plain id sort would put an
// ancestor between its descendants (a cell's id is the midpoint of its leaf
// range); interval order puts it ahead of them, which is what lets Build
// push references down in one forward pass.
type pair [2]uint64

const (
	aux = 0
	pos = 1
)

func makePair(cell cellid.ID, ref Ref) pair {
	p := pair{aux: uint64(cell.Level())<<32 | uint64(ref.PolygonID)<<1, pos: uint64(cell.RangeMin()) >> 1}
	if ref.Interior {
		p[aux] |= 1
	}
	return p
}

// level returns the level of the pair's cell.
func (p pair) level() uint { return uint(p[aux] >> 32) }

// leaves returns the number of leaf cells the pair's cell spans.
func (p pair) leaves() uint64 { return 1 << (2 * (cellid.MaxLevel - p.level())) }

// polygonID returns the referenced polygon.
func (p pair) polygonID() uint32 { return uint32(p[aux]) >> 1 }

// cellAt returns the cell spanning leaves [first, first+leaves).
func cellAt(first, leaves uint64) cellid.ID { return cellid.ID(first<<1 + leaves) }

// Add registers the covering of one polygon. Boundary cells become
// candidate references and interior cells true-hit references. The covering
// is read by Build and must not change until then.
func (b *Builder) Add(polygonID uint32, cov *cover.Covering) error {
	if polygonID > MaxPolygonID {
		return fmt.Errorf("supercover: polygon id %d exceeds the 30-bit limit", polygonID)
	}
	b.coverings = append(b.coverings, polygonCovering{polygonID, cov})
	return nil
}

// AddCell registers one already-merged covering cell with explicit
// references — the re-ingestion path used when the original per-polygon
// coverings are gone and the cells come straight out of an existing trie
// (core.Trie.Cells): epoch compaction feeds a base's cells through here and
// the delta polygons' coverings through Add, and Build's pushdown resolves
// any overlap between the two exactly as it does between polygons.
func (b *Builder) AddCell(cell cellid.ID, refs []Ref) error {
	for _, r := range refs {
		if r.PolygonID > MaxPolygonID {
			return fmt.Errorf("supercover: polygon id %d exceeds the 30-bit limit", r.PolygonID)
		}
		b.pairs = append(b.pairs, makePair(cell, r))
	}
	return nil
}

// Grow makes room for n more AddCell references beside the cells of the
// coverings added so far, so that Build expands everything in the one
// allocation. Worth calling when n is large: append grows a big slice by a
// quarter at a time and allocates the list four times over on the way.
func (b *Builder) Grow(n int) {
	for _, c := range b.coverings {
		n += c.cov.NumCells()
	}
	b.pairs = slices.Grow(b.pairs, n)
}

// radixBits is the digit width of sortPairs.
const radixBits = 8

// sortPairs sorts a by (pos, aux) with a least-significant-digit radix sort
// whose digits start at bits on which the keys differ, so the bits they all
// share cost nothing — for a city's polygons that is the face, the upper
// position bits, the position bits below the deepest level and the upper id
// bits, more than half the key. It returns the sorted pairs, in a or in a
// scratch buffer of the same size.
func sortPairs(a []pair) []pair {
	if len(a) < 2 {
		return a
	}
	and, or := a[0], a[0]
	for _, p := range a[1:] {
		and[aux] &= p[aux]
		and[pos] &= p[pos]
		or[aux] |= p[aux]
		or[pos] |= p[pos]
	}
	const digit = 1<<radixBits - 1
	src, dst := a, make([]pair, len(a))
	for word := range and {
		for varies := and[word] ^ or[word]; varies != 0; {
			shift := uint(bits.TrailingZeros64(varies))
			varies &^= digit << shift
			var next [digit + 1]int
			for i := range src {
				next[src[i][word]>>shift&digit]++
			}
			sum := 0
			for d, n := range next {
				next[d] = sum
				sum += n
			}
			for i := range src {
				d := src[i][word] >> shift & digit
				dst[next[d]] = src[i]
				next[d]++
			}
			src, dst = dst, src
		}
	}
	return src
}

// ancestor is an input cell that contains further input cells and therefore
// cannot be emitted itself: its references are pushed down onto the input
// cells under it and onto "gap" cells filling the rest of its area.
type ancestor struct {
	next, end uint64 // leaves [next, end) of the cell are not yet covered by output
	refs      int    // its merged references start here in the pending list
}

// Build merges everything added so far into a prefix-free super covering.
func (b *Builder) Build() *SuperCovering {
	cells := 0
	for _, c := range b.coverings {
		cells += c.cov.NumCells()
	}
	pairs := slices.Grow(b.pairs, cells)
	for _, c := range b.coverings {
		for _, cell := range c.cov.Boundary {
			pairs = append(pairs, makePair(cell, Ref{PolygonID: c.id}))
		}
		for _, cell := range c.cov.Interior {
			pairs = append(pairs, makePair(cell, Ref{PolygonID: c.id, Interior: true}))
		}
	}
	// Release the builder's working memory.
	*b = Builder{}
	pairs = sortPairs(pairs)
	// Sized for the common case — cells shared between neighbours merge,
	// pushdown adds a few; append grows them if pushdown adds many.
	s := &SuperCovering{
		cells:  make([]cellid.ID, 0, len(pairs)),
		refOff: make([]uint32, 0, len(pairs)+1),
		refs:   make([]Ref, 0, len(pairs)),
	}
	// One forward pass in interval order. open holds the ancestors of the
	// current position, outermost first; pending their merged reference
	// lists back to back, so the innermost ancestor's list is its tail.
	var open []ancestor
	var pending []Ref
	closeTop := func() {
		top := open[len(open)-1]
		s.fill(top.next, top.end, pending[top.refs:])
		pending = pending[:top.refs]
		open = open[:len(open)-1]
	}
	for i := 0; i < len(pairs); {
		first, leaves := pairs[i][pos], pairs[i].leaves()
		j := i + 1
		for j < len(pairs) && pairs[j][pos] == first && pairs[j].level() == pairs[i].level() {
			j++
		}
		for len(open) > 0 && open[len(open)-1].end <= first {
			closeTop()
		}
		var inherited []Ref
		if len(open) > 0 {
			top := &open[len(open)-1]
			inherited = pending[top.refs:]
			s.fill(top.next, first, inherited)
			top.next = first + leaves
		}
		if j < len(pairs) && pairs[j][pos] < first+leaves {
			// The next cell lies inside this one, which must split.
			open = append(open, ancestor{next: first, end: first + leaves, refs: len(pending)})
			pending = appendMerged(pending, inherited, pairs[i:j])
		} else {
			s.cells = append(s.cells, cellAt(first, leaves))
			s.refOff = append(s.refOff, uint32(len(s.refs)))
			s.refs = appendMerged(s.refs, inherited, pairs[i:j])
		}
		i = j
	}
	for len(open) > 0 {
		closeTop()
	}
	s.refOff = append(s.refOff, uint32(len(s.refs)))
	return s
}

// fill covers the leaves [lo, hi) — an area of an ancestor under which no
// input cell lies — with the fewest cells, each carrying the ancestor's
// references: the siblings of the cells on the way down to its descendants.
func (s *SuperCovering) fill(lo, hi uint64, refs []Ref) {
	for lo < hi {
		// The largest cell that starts at lo and ends by hi.
		shift := min(uint(bits.TrailingZeros64(lo))&^1, 2*cellid.MaxLevel)
		for 1<<shift > hi-lo {
			shift -= 2
		}
		s.append(cellAt(lo, 1<<shift), refs)
		lo += 1 << shift
	}
}

// append adds a cell with its references to the output.
func (s *SuperCovering) append(cell cellid.ID, refs []Ref) {
	s.cells = append(s.cells, cell)
	s.refOff = append(s.refOff, uint32(len(s.refs)))
	s.refs = append(s.refs, refs...)
}

// appendMerged appends to dst the references of a cell: those inherited from
// its ancestors (ascending ids, no duplicates; must not overlap dst's spare
// capacity) merged with its own pairs (ascending ids, candidate first),
// one per polygon id. When a polygon appears with both flags the candidate
// (non-interior) flag wins: reporting a sure hit as a candidate is safe, the
// reverse would break the true-hit guarantee.
func appendMerged(dst, inherited []Ref, own []pair) []Ref {
	for k := 0; k < len(own); {
		id := own[k].polygonID()
		interior := own[k][aux]&1 != 0
		for k++; k < len(own) && own[k].polygonID() == id; k++ {
		}
		for len(inherited) > 0 && inherited[0].PolygonID < id {
			dst = append(dst, inherited[0])
			inherited = inherited[1:]
		}
		if len(inherited) > 0 && inherited[0].PolygonID == id {
			interior = interior && inherited[0].Interior
			inherited = inherited[1:]
		}
		dst = append(dst, Ref{PolygonID: id, Interior: interior})
	}
	return append(dst, inherited...)
}

// Stats summarizes a super covering for Table I style reporting.
type Stats struct {
	NumCells    int
	NumRefs     int
	MaxRefs     int     // largest reference set on a single cell
	AvgRefs     float64 // mean references per cell
	NumInterior int     // cells whose references are all true hits
}

// ComputeStats scans the super covering and returns summary statistics.
func (s *SuperCovering) ComputeStats() Stats {
	st := Stats{NumCells: s.NumCells(), NumRefs: s.NumRefs()}
	for i := 0; i < s.NumCells(); i++ {
		refs := s.Refs(i)
		if len(refs) > st.MaxRefs {
			st.MaxRefs = len(refs)
		}
		allInterior := true
		for _, r := range refs {
			if !r.Interior {
				allInterior = false
				break
			}
		}
		if allInterior {
			st.NumInterior++
		}
	}
	if st.NumCells > 0 {
		st.AvgRefs = float64(st.NumRefs) / float64(st.NumCells)
	}
	return st
}
