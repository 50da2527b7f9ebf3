package supercover

import (
	"sort"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
)

// referenceBuilder is the merge as it stood before Build became a radix sort
// and one forward pass: a comparison sort into interval order, then a
// top-down recursion that allocates and sorts one reference list per output
// cell. It is slow and obviously faithful to the paper's description of the
// pushdown, which is what the differential tests and FuzzSupercoverMerge
// need from the side they hold Build against.
type referenceBuilder struct {
	pairs []refPair
}

type refPair struct {
	cell cellid.ID
	ref  Ref
}

func (b *referenceBuilder) Add(polygonID uint32, cov *cover.Covering) {
	for _, c := range cov.Boundary {
		b.pairs = append(b.pairs, refPair{cell: c, ref: Ref{PolygonID: polygonID}})
	}
	for _, c := range cov.Interior {
		b.pairs = append(b.pairs, refPair{cell: c, ref: Ref{PolygonID: polygonID, Interior: true}})
	}
}

func (b *referenceBuilder) AddCell(cell cellid.ID, refs []Ref) {
	for _, r := range refs {
		b.pairs = append(b.pairs, refPair{cell: cell, ref: r})
	}
}

func (b *referenceBuilder) Build() *SuperCovering {
	// Interval order: by first leaf, then shallower (larger) cells first.
	sort.Slice(b.pairs, func(i, j int) bool {
		a, c := b.pairs[i].cell, b.pairs[j].cell
		if am, cm := a.RangeMin(), c.RangeMin(); am != cm {
			return am < cm
		}
		if a != c {
			return a.Level() < c.Level()
		}
		return b.pairs[i].ref.PolygonID < b.pairs[j].ref.PolygonID
	})
	s := &SuperCovering{}
	lo := 0
	for face := 0; face < cellid.NumFaces; face++ {
		hi := lo
		for hi < len(b.pairs) && b.pairs[hi].cell.Face() == face {
			hi++
		}
		if hi > lo {
			b.emit(s, cellid.FromFace(face), lo, hi, nil)
		}
		lo = hi
	}
	s.refOff = append(s.refOff, uint32(len(s.refs)))
	return s
}

// emit recursively outputs the prefix-free covering of node. pairs[lo:hi]
// holds, in interval order, every (cell, ref) pair whose cell is node or a
// descendant of node; inherited carries references of ancestors that must
// be replicated across node.
func (b *referenceBuilder) emit(s *SuperCovering, node cellid.ID, lo, hi int, inherited []Ref) {
	own := lo
	for own < hi && b.pairs[own].cell == node {
		own++
	}
	merged := inherited
	if own > lo {
		merged = referenceMergeRefs(inherited, b.pairs[lo:own])
	}
	if own == hi {
		if len(merged) > 0 {
			s.append(node, merged)
		}
		return
	}
	start := own
	for _, child := range node.Children() {
		max := child.RangeMax()
		end := start
		for end < hi && b.pairs[end].cell.RangeMin() <= max {
			end++
		}
		if end == start {
			// Gap: no stored cell under this child. Ancestor references
			// still apply to the whole child area.
			if len(merged) > 0 {
				s.append(child, merged)
			}
		} else {
			b.emit(s, child, start, end, merged)
		}
		start = end
	}
}

// referenceMergeRefs combines inherited ancestor references with a cell's
// own pairs, deduplicating by polygon id; the candidate flag wins.
func referenceMergeRefs(inherited []Ref, own []refPair) []Ref {
	out := make([]Ref, 0, len(inherited)+len(own))
	out = append(out, inherited...)
	for _, p := range own {
		out = append(out, p.ref)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PolygonID != out[j].PolygonID {
			return out[i].PolygonID < out[j].PolygonID
		}
		return !out[i].Interior && out[j].Interior // candidate first
	})
	dedup := out[:0]
	for i, r := range out {
		if i > 0 && r.PolygonID == dedup[len(dedup)-1].PolygonID {
			continue
		}
		dedup = append(dedup, r)
	}
	return dedup
}
