// Package rtree implements an in-memory R*-tree over 2D rectangles. It is
// the baseline the paper compares against (§III): polygon minimum bounding
// rectangles indexed with the R* splitting strategy and a maximum of 8
// entries per node, probed per point without refining candidates.
//
// The implementation follows Beckmann et al.'s R*-tree: ChooseSubtree
// minimizes overlap enlargement at leaf level and area enlargement above,
// splits pick the axis by minimum margin sum and the distribution by
// minimum overlap, and the first overflow at each level during an insertion
// triggers a forced reinsertion of the 30% of entries farthest from the
// node center.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"github.com/actindex/act/internal/geom"
)

// DefaultMaxEntries matches the paper's evaluation setup ("a maximum of 8
// elements per node performs best in all workloads").
const DefaultMaxEntries = 8

// reinsertFraction is the share of entries evicted on first overflow (the
// canonical R* p = 30%).
const reinsertFraction = 0.3

// Tree is an R*-tree mapping rectangles to uint32 ids. The zero value is
// not usable; construct with New. A tree is safe for concurrent reads once
// building has finished.
type Tree struct {
	root       *node
	maxEntries int
	minEntries int
	height     int // leaf = 1
	size       int
}

type entry struct {
	rect  geom.Rect
	child *node  // nil at leaves
	id    uint32 // leaf payload
}

type node struct {
	leaf    bool
	entries []entry
}

// New returns an empty tree. maxEntries must be at least 4; the minimum
// fill is set to 40% as in the R* paper.
func New(maxEntries int) (*Tree, error) {
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries must be >= 4, got %d", maxEntries)
	}
	return &Tree{
		root:       &node{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
		height:     1,
	}, nil
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (a single leaf has height 1).
func (t *Tree) Height() int { return t.height }

// Insert adds a rectangle with its id.
func (t *Tree) Insert(r geom.Rect, id uint32) {
	t.size++
	// reinsertedLevels tracks which levels already spilled during this
	// insertion so forced reinsertion happens at most once per level.
	reinserted := make(map[int]bool)
	t.insertAtLevel(entry{rect: r, id: id}, 1, reinserted)
}

// insertAtLevel places e so that its subtree roots sit at the given level
// (1 = leaf).
func (t *Tree) insertAtLevel(e entry, level int, reinserted map[int]bool) {
	path := make([]*node, 0, t.height)
	n := t.root
	for lvl := t.height; lvl > level; lvl-- {
		path = append(path, n)
		// R*: minimize overlap enlargement when choosing among entries
		// whose children are leaves, area enlargement otherwise.
		// chooseSubtree also enlarges the chosen entry's rect, keeping
		// the coverage invariant along the descent path.
		n = t.chooseSubtree(n, e.rect, lvl == 2)
	}
	n.entries = append(n.entries, e)

	// Handle overflow from the insertion level upward.
	for lvl, cur := level, n; cur != nil && len(cur.entries) > t.maxEntries; {
		parent := parentOf(path, lvl, t.height)
		if parent == nil && cur != t.root {
			panic("rtree: lost parent") // defensive; path covers all levels
		}
		if cur != t.root && !reinserted[lvl] {
			reinserted[lvl] = true
			t.reinsert(cur, parent, lvl, reinserted)
		} else {
			left, right := t.split(cur)
			if cur == t.root {
				t.root = &node{leaf: false, entries: []entry{
					{rect: nodeRect(left), child: left},
					{rect: nodeRect(right), child: right},
				}}
				t.height++
				return
			}
			replaceChild(parent, cur, left, right)
			cur = parent
			lvl++
			continue
		}
		return
	}
}

// parentOf returns the node on the recorded root→leaf path that is the
// parent of the node at the given level, or nil for the root.
func parentOf(path []*node, level, height int) *node {
	// path[0] is the root (level = height); the parent of a node at
	// `level` sits at level+1, i.e. index height-(level+1).
	idx := height - level - 1
	if idx < 0 || idx >= len(path) {
		return nil
	}
	return path[idx]
}

// chooseSubtree implements the R* descent criterion.
func (t *Tree) chooseSubtree(n *node, r geom.Rect, childIsLeaf bool) *node {
	best := -1
	var bestEnlarge, bestArea, bestOverlap float64
	for i := range n.entries {
		e := &n.entries[i]
		u := e.rect.Union(r)
		enlarge := u.Area() - e.rect.Area()
		var overlap float64
		if childIsLeaf {
			// Overlap enlargement against siblings.
			for j := range n.entries {
				if j == i {
					continue
				}
				overlap += intersectArea(u, n.entries[j].rect) -
					intersectArea(e.rect, n.entries[j].rect)
			}
		}
		if best == -1 ||
			(childIsLeaf && less3(overlap, enlarge, e.rect.Area(), bestOverlap, bestEnlarge, bestArea)) ||
			(!childIsLeaf && less2(enlarge, e.rect.Area(), bestEnlarge, bestArea)) {
			best = i
			bestEnlarge, bestArea, bestOverlap = enlarge, e.rect.Area(), overlap
		}
	}
	chosen := &n.entries[best]
	chosen.rect = chosen.rect.Union(r)
	return chosen.child
}

func less3(a1, a2, a3, b1, b2, b3 float64) bool {
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

func less2(a1, a2, b1, b2 float64) bool {
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

func intersectArea(a, b geom.Rect) float64 {
	w := math.Min(a.Max.X, b.Max.X) - math.Max(a.Min.X, b.Min.X)
	if w <= 0 {
		return 0
	}
	h := math.Min(a.Max.Y, b.Max.Y) - math.Max(a.Min.Y, b.Min.Y)
	if h <= 0 {
		return 0
	}
	return w * h
}

// reinsert implements R* forced reinsertion: evict the entries farthest
// from the node's center and insert them again from the top.
func (t *Tree) reinsert(n *node, parent *node, level int, reinserted map[int]bool) {
	center := nodeRect(n).Center()
	sort.Slice(n.entries, func(i, j int) bool {
		return n.entries[i].rect.Center().Dist(center) < n.entries[j].rect.Center().Dist(center)
	})
	p := int(math.Ceil(float64(len(n.entries)) * reinsertFraction))
	if p < 1 {
		p = 1
	}
	cut := len(n.entries) - p
	evicted := make([]entry, p)
	copy(evicted, n.entries[cut:])
	n.entries = n.entries[:cut]
	refreshChildRect(parent, n)
	for _, e := range evicted {
		t.insertAtLevel(e, level, reinserted)
	}
}

// split implements the R* topological split.
func (t *Tree) split(n *node) (*node, *node) {
	m := t.minEntries
	entries := n.entries

	// Choose split axis: minimum sum of margins over all distributions.
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < 2; axis++ {
		sortByAxis(entries, axis)
		var margin float64
		for k := m; k <= len(entries)-m; k++ {
			margin += marginOf(entries[:k]) + marginOf(entries[k:])
		}
		if margin < bestMargin {
			bestMargin, bestAxis = margin, axis
		}
	}
	sortByAxis(entries, bestAxis)

	// Choose split index: minimum overlap, ties by minimum total area.
	bestK, bestOverlap, bestArea := -1, math.Inf(1), math.Inf(1)
	for k := m; k <= len(entries)-m; k++ {
		r1, r2 := rectOf(entries[:k]), rectOf(entries[k:])
		ov := intersectArea(r1, r2)
		area := r1.Area() + r2.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}

	left := &node{leaf: n.leaf, entries: append([]entry(nil), entries[:bestK]...)}
	right := &node{leaf: n.leaf, entries: append([]entry(nil), entries[bestK:]...)}
	return left, right
}

func sortByAxis(entries []entry, axis int) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].rect, entries[j].rect
		if axis == 0 {
			if a.Min.X != b.Min.X {
				return a.Min.X < b.Min.X
			}
			return a.Max.X < b.Max.X
		}
		if a.Min.Y != b.Min.Y {
			return a.Min.Y < b.Min.Y
		}
		return a.Max.Y < b.Max.Y
	})
}

func marginOf(entries []entry) float64 {
	r := rectOf(entries)
	return (r.Max.X - r.Min.X) + (r.Max.Y - r.Min.Y)
}

func rectOf(entries []entry) geom.Rect {
	r := entries[0].rect
	for _, e := range entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

func nodeRect(n *node) geom.Rect { return rectOf(n.entries) }

// replaceChild swaps the entry pointing to old with entries for the two
// split halves.
func replaceChild(parent *node, old *node, left, right *node) {
	for i := range parent.entries {
		if parent.entries[i].child == old {
			parent.entries[i] = entry{rect: nodeRect(left), child: left}
			parent.entries = append(parent.entries, entry{rect: nodeRect(right), child: right})
			return
		}
	}
	panic("rtree: split child not found in parent")
}

// refreshChildRect recomputes the parent entry rect of child n after
// entries were evicted.
func refreshChildRect(parent *node, n *node) {
	if parent == nil {
		return
	}
	for i := range parent.entries {
		if parent.entries[i].child == n {
			parent.entries[i].rect = nodeRect(n)
			return
		}
	}
}

// QueryPoint appends to buf the ids of all rectangles containing p and
// returns the extended slice. Pass a reused buffer to avoid allocation.
func (t *Tree) QueryPoint(p geom.Point, buf []uint32) []uint32 {
	return queryPoint(t.root, p, buf)
}

func queryPoint(n *node, p geom.Point, buf []uint32) []uint32 {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Contains(p) {
			continue
		}
		if n.leaf {
			buf = append(buf, e.id)
		} else {
			buf = queryPoint(e.child, p, buf)
		}
	}
	return buf
}

// QueryRect appends the ids of all rectangles intersecting r.
func (t *Tree) QueryRect(r geom.Rect, buf []uint32) []uint32 {
	return queryRect(t.root, r, buf)
}

func queryRect(n *node, r geom.Rect, buf []uint32) []uint32 {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Intersects(r) {
			continue
		}
		if n.leaf {
			buf = append(buf, e.id)
		} else {
			buf = queryRect(e.child, r, buf)
		}
	}
	return buf
}

// CheckInvariants validates structural invariants; it is exported for tests
// and returns a descriptive error when a violation is found.
func (t *Tree) CheckInvariants() error {
	var count int
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if n != t.root && len(n.entries) < t.minEntries {
			return fmt.Errorf("underfull node at depth %d: %d entries", depth, len(n.entries))
		}
		if len(n.entries) > t.maxEntries {
			return fmt.Errorf("overfull node at depth %d: %d entries", depth, len(n.entries))
		}
		if n.leaf {
			if depth != t.height {
				return fmt.Errorf("leaf at depth %d, height %d", depth, t.height)
			}
			count += len(n.entries)
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.child == nil {
				return fmt.Errorf("nil child in internal node at depth %d", depth)
			}
			if got := nodeRect(e.child); !e.rect.ContainsRect(got) {
				return fmt.Errorf("entry rect %v does not cover child rect %v", e.rect, got)
			}
			if err := walk(e.child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d != counted leaf entries %d", t.size, count)
	}
	return nil
}
