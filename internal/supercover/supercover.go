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
//
// A polygon set needs no merge of its own: the coverer's descent
// (cover.Coverer.Descend) covers all its polygons at once and hands out the
// super covering already merged, which is how an index is built. This
// package merges what comes as cells rather than polygons — a compaction's
// base cells with the delta coverings, a delta overlay's coverings — and
// its Builder.Add/Build, over per-polygon coverings, is the descent's test
// oracle. The merge has two phases: Builder.Sort puts the input (cell,
// reference) pairs in interval order, and Sorted.Merge makes one forward
// pass over them that hands out each merged cell as it is produced — to the
// trie builder, which never needs the whole super covering, or to
// Builder.Build, which materializes it. Input that is sorted already, a
// compaction's base cells as its trie hands them out, joins the pass as a
// run read in step with the pairs (LSM-style: sorted runs are merged, never
// sorted again, after O'Neil et al., "The Log-Structured Merge-Tree").
package supercover

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
)

// MaxPolygonID is the largest polygon identifier the pipeline supports; the
// trie inlines polygon ids as 30-bit values (paper §II: "index up to 2^30
// polygons").
const MaxPolygonID = 1<<30 - 1

// Ref is a polygon reference attached to a cell: the polygon id plus the
// interior flag distinguishing true hits from candidate hits. It is the
// coverer's own, whose descent (cover.Coverer.Descend) merges as it covers.
type Ref = cover.Ref

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

// Cells calls fn for each cell in id order with its references (aliasing
// the covering's storage) and stops at fn's first error.
func (s *SuperCovering) Cells(fn func(cell cellid.ID, refs []Ref) error) error {
	for i := range s.cells {
		if err := fn(s.cells[i], s.Refs(i)); err != nil {
			return err
		}
	}
	return nil
}

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

// AddCell registers one covering cell with explicit references, which
// Build's pushdown merges with everything else added exactly as it merges
// polygons. It is how tests feed the merge arbitrary cells; a compaction
// does not take this path, as its base cells arrive in order and are merged
// as they are read (Sorted.Merge).
func (b *Builder) AddCell(cell cellid.ID, refs []Ref) error {
	for _, r := range refs {
		if r.PolygonID > MaxPolygonID {
			return fmt.Errorf("supercover: polygon id %d exceeds the 30-bit limit", r.PolygonID)
		}
		b.pairs = append(b.pairs, makePair(cell, r))
	}
	return nil
}

// radixBits is the digit width of sortPairsWide.
const radixBits = 8

// levelBits holds a level, 0 to cellid.MaxLevel.
const levelBits = 5

// sortPairs sorts a by (pos, aux) and returns the sorted pairs, in a or in a
// scratch buffer of the same size.
//
// The sort moves one 8-byte record a pair, not the 16-byte pair: from the
// top, the bits of pos on which the pairs differ, the level, and the polygon
// id with the interior flag, in as few bits as the largest id needs. Only
// the bits above the id are radix-sorted; an insertion sort then puts each
// run of equal first leaf and level in id order (runs are 1.36 pairs on the
// census map), and the records are decoded back into a. The result does not
// depend on the input's order, so neither does the merge. When the fields
// do not fit in 64 bits — fine cells spread over several faces, say — the
// pairs are sorted on both words instead.
func sortPairs(a []pair) []pair {
	if len(a) < 2 {
		return a
	}
	and, or, ids := a[0][pos], a[0][pos], uint64(0)
	for _, p := range a {
		and &= p[pos]
		or |= p[pos]
		ids |= uint64(uint32(p[aux]))
	}
	varies := and ^ or
	lo := uint(bits.TrailingZeros64(varies)) % 64 // 0 when nothing varies
	width := uint(bits.Len64(varies >> lo))
	idBits := uint(bits.Len64(ids))
	if width+levelBits+idBits > 64 {
		return sortPairsWide(a)
	}
	keyAt := levelBits + idBits // where the varying bits of pos start
	// A pair is two words, so a's array holds the records and the radix
	// sort's scratch side by side: the sort allocates no buffer of its own.
	// The records are written over pairs already read, and decoded back
	// over records already read, from whichever end keeps that true.
	n := len(a)
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&a[0])), 2*n)
	recs := words[:n]
	for i := range recs {
		p := a[i]
		recs[i] = p[pos]>>lo&(1<<width-1)<<keyAt | uint64(p.level())<<idBits | uint64(uint32(p[aux]))
	}
	recs = radixSort(recs, words[n:], idBits, keyAt+width)
	// Every record is in its run; insertion moves none past a run's start.
	for k := 1; k < n; k++ {
		for m := k; m > 0 && recs[m] < recs[m-1]; m-- {
			recs[m], recs[m-1] = recs[m-1], recs[m]
		}
	}
	fixed := and &^ ((1<<width - 1) << lo) // the bits of pos every pair shares
	decode := func(i int) {
		r := recs[i]
		a[i] = pair{
			aux: r>>idBits&(1<<levelBits-1)<<32 | r&(1<<idBits-1),
			pos: fixed | r>>keyAt<<lo,
		}
	}
	if &recs[0] == &words[0] { // record i lies at or below pair i
		for i := n - 1; i >= 0; i-- {
			decode(i)
		}
	} else { // record i lies at or above pair i's second word
		for i := range n {
			decode(i)
		}
	}
	return a
}

// radixSort sorts src stably by bits [from, to) of its values with a
// least-significant-digit radix sort of 11-bit digits, all of them counted
// in one pass over src; a digit on which every value agrees costs no pass.
// dst is scratch of src's length; the sorted values are returned in one of
// the two.
func radixSort(src, dst []uint64, from, to uint) []uint64 {
	const digitBits = 11
	const digit = 1<<digitBits - 1
	count := make([][digit + 1]int, (to-from+digitBits-1)/digitBits)
	for _, v := range src {
		v >>= from
		for p := range count {
			count[p][v&digit]++
			v >>= digitBits
		}
	}
	for p := range count {
		next, shift := &count[p], from+uint(p)*digitBits
		if next[src[0]>>shift&digit] == len(src) {
			continue
		}
		sum := 0
		for d, n := range next {
			next[d] = sum
			sum += n
		}
		for _, v := range src {
			d := v >> shift & digit
			dst[next[d]] = v
			next[d]++
		}
		src, dst = dst, src
	}
	return src
}

// sortPairsWide sorts a by (pos, aux) with a least-significant-digit radix
// sort over both words whose digits start at bits on which the keys differ,
// so the bits they all share cost nothing. It returns the sorted pairs, in a
// or in a scratch buffer of the same size.
func sortPairsWide(a []pair) []pair {
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

// ancestor is an input cell the forward pass has reached and not yet
// passed: its references are pushed down onto the input cells under it and
// onto "gap" cells filling the rest of its area, which is the whole cell
// when no input cell lies under it.
type ancestor struct {
	next, end uint64 // leaves [next, end) of the cell are not yet covered by output
	refs      int    // its merged references start here in the pending list
}

// Sorted is a merge's input in interval order: the first of the merge's two
// phases done. Its Merge runs the second, the forward pass, and hands each
// cell of the super covering on as it is produced, so a consumer such as
// the trie builder never needs the super covering materialized.
type Sorted struct {
	pairs []pair
	cells int // cells the last Merge produced
}

// Sort expands and sorts everything added so far and releases the
// builder's working memory.
func (b *Builder) Sort() *Sorted {
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
	*b = Builder{}
	return &Sorted{pairs: sortPairs(pairs)}
}

// Build merges everything added so far into a prefix-free super covering,
// materialized: Sort, then Cells collected.
func (b *Builder) Build() *SuperCovering {
	sorted := b.Sort()
	// Sized for the common case — cells shared between neighbours merge,
	// pushdown adds a few; append grows them if pushdown adds many.
	n := len(sorted.pairs)
	s := &SuperCovering{
		cells:  make([]cellid.ID, 0, n),
		refOff: make([]uint32, 0, n+1),
		refs:   make([]Ref, 0, n),
	}
	_ = sorted.Cells(func(cell cellid.ID, refs []Ref) error {
		s.append(cell, refs)
		return nil
	})
	s.refOff = append(s.refOff, uint32(len(s.refs)))
	return s
}

// append adds a cell with its references to the output.
func (s *SuperCovering) append(cell cellid.ID, refs []Ref) {
	s.cells = append(s.cells, cell)
	s.refOff = append(s.refOff, uint32(len(s.refs)))
	s.refs = append(s.refs, refs...)
}

// NumRefs returns the number of (cell, reference) pairs the merge takes in.
func (s *Sorted) NumRefs() int { return len(s.pairs) }

// NumCells returns the number of cells in the super covering, once Merge
// (or Cells) has produced all of them.
func (s *Sorted) NumCells() int { return s.cells }

// Cells runs the merge's forward pass and calls fn for each cell of the
// super covering, in ascending id order, with its references (ascending
// polygon ids, one per polygon), which fn must not modify or keep. It stops
// at fn's first error and returns it. Cells may run more than once. It is
// Merge with no run.
func (s *Sorted) Cells(fn func(cell cellid.ID, refs []Ref) error) error {
	return s.Merge(nil, fn)
}

// Merge runs the forward pass over the sorted pairs and the cells run hands
// over, interleaved in interval order, and calls fn as Cells does for each
// cell of the super covering of both. run calls its argument for each of
// its cells in ascending id order with its references (ascending polygon
// ids, one per polygon, none above MaxPolygonID, as in a trie), which Merge
// does not modify or keep; its cells must be pairwise disjoint, as a trie's
// (core.Trie.Cells) are, and a cell without references adds nothing. A
// cell run hands over meets the pairs as the cells of Add's coverings meet
// one another: so an already-sorted covering, a compaction's base, is
// merged as it is read instead of being sorted with the pairs. Merge stops
// at the first error, run's or fn's, and returns it; a nil run merges the
// pairs alone.
//
// Every input cell opens as an ancestor. The next input cell closes the
// ancestors it lies past, each filling what is left of its leaves with its
// references, and fills the part of its own ancestor before it; so an
// ancestor that nothing splits closes as itself.
func (s *Sorted) Merge(run func(yield func(cell cellid.ID, refs []Ref) error) error, fn func(cell cellid.ID, refs []Ref) error) error {
	s.cells = 0
	m := merge{emit: func(cell cellid.ID, refs []Ref) error {
		s.cells++
		return fn(cell, refs)
	}}
	pairs := s.pairs
	// feed pushes the pairs ahead of p in interval order, a cell at a time.
	feed := func(p pair) error {
		for len(pairs) > 0 && (pairs[0][pos] < p[pos] || pairs[0][pos] == p[pos] && pairs[0].level() <= p.level()) {
			j := 1
			for j < len(pairs) && pairs[j][pos] == pairs[0][pos] && pairs[j].level() == pairs[0].level() {
				j++
			}
			if err := m.push(pairs[:j]); err != nil {
				return err
			}
			pairs = pairs[j:]
		}
		return nil
	}
	if run != nil {
		var own []pair
		err := run(func(cell cellid.ID, refs []Ref) error {
			own = own[:0]
			for _, r := range refs {
				own = append(own, makePair(cell, r))
			}
			if len(own) == 0 {
				return nil
			}
			if err := feed(own[0]); err != nil {
				return err
			}
			return m.push(own)
		})
		if err != nil {
			return err
		}
	}
	// The pairs past run's last cell, then every ancestor still open.
	if err := feed(pair{pos: math.MaxUint64}); err != nil {
		return err
	}
	return m.closeBy(math.MaxUint64)
}

// merge is the state of one forward pass, which hands each cell of the
// super covering to emit. open holds the ancestors of the current position,
// outermost first; pending their merged reference lists back to back, so
// the innermost ancestor's list is its tail.
type merge struct {
	emit    func(cell cellid.ID, refs []Ref) error
	open    []ancestor
	pending []Ref
}

// push takes the next input cell in interval order: own, its pairs, one
// cell's, in ascending polygon order.
func (m *merge) push(own []pair) error {
	first, leaves := own[0][pos], own[0].leaves()
	if err := m.closeBy(first); err != nil {
		return err
	}
	var inherited []Ref
	if len(m.open) > 0 {
		top := &m.open[len(m.open)-1]
		inherited = m.pending[top.refs:]
		if err := fill(top.next, first, inherited, m.emit); err != nil {
			return err
		}
		top.next = first + leaves
	}
	m.open = append(m.open, ancestor{next: first, end: first + leaves, refs: len(m.pending)})
	m.pending = appendMerged(m.pending, inherited, own)
	return nil
}

// closeBy closes the open ancestors that end by leaf position at,
// innermost first, each filling what is left of it.
func (m *merge) closeBy(at uint64) error {
	for len(m.open) > 0 && m.open[len(m.open)-1].end <= at {
		top := m.open[len(m.open)-1]
		if err := fill(top.next, top.end, m.pending[top.refs:], m.emit); err != nil {
			return err
		}
		m.pending, m.open = m.pending[:top.refs], m.open[:len(m.open)-1]
	}
	return nil
}

// fill covers the leaves [lo, hi) — an area of an ancestor under which no
// input cell lies — with the fewest cells, each carrying the ancestor's
// references: the siblings of the cells on the way down to its descendants.
func fill(lo, hi uint64, refs []Ref, emit func(cellid.ID, []Ref) error) error {
	for lo < hi {
		// The largest cell that starts at lo and ends by hi: as large as
		// lo's alignment and the leaves left allow, a power of four.
		shift := min(uint(bits.TrailingZeros64(lo)), uint(bits.Len64(hi-lo)-1)) &^ 1
		if err := emit(cellAt(lo, 1<<shift), refs); err != nil {
			return err
		}
		lo += 1 << shift
	}
	return nil
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
