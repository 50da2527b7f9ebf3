package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/actindex/act/internal/cellid"
)

// TestRelayoutPreservesLookupsAndIsIdempotent relays out a build-order trie,
// with and without sharing blocks, and demands identical lookups before and
// after, then proves a second relayout is the identity — the property that
// keeps relaid tries byte-stable through the serializer. Without sharing the
// arena keeps every word; sharing can only drop some.
func TestRelayoutPreservesLookupsAndIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := randomPrefixFreeCovering(t, rng, []int{0, 2, 5}, 150)
	for _, fanout := range fanouts {
		raw, err := build(sc, Config{Fanout: fanout}) // allocation order, not relaid
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		leaves := probeMix(rng, sc)
		want := make([]Result, len(leaves))
		wantHit := make([]bool, len(leaves))
		for i, leaf := range leaves {
			wantHit[i] = raw.Lookup(leaf, &want[i])
		}
		words, numNodes := len(raw.nodes), raw.ComputeStats().NumNodes+1
		unshared := layoutUnshared(raw)
		if len(unshared.nodes) != words {
			t.Fatalf("fanout %d: the unshared layout of a fully reachable trie kept %d of %d words", fanout, len(unshared.nodes), words)
		}
		if got := raw.Relayout(); got != numNodes || len(raw.nodes) > words {
			t.Fatalf("fanout %d: relayout of a fully reachable trie kept %d of %d nodes, %d of %d words", fanout, got, numNodes, len(raw.nodes), words)
		}
		var res Result
		for _, tr := range []*Trie{unshared, raw} {
			for i, leaf := range leaves {
				res.Reset()
				if hit := tr.Lookup(leaf, &res); hit != wantHit[i] || !resultEqual(&res, &want[i]) {
					t.Fatalf("fanout %d leaf %v: lookup changed after relayout", fanout, leaf)
				}
			}
		}
		nodes := append([]uint64(nil), raw.nodes...)
		roots := raw.roots
		raw.Relayout()
		if roots != raw.roots || !slicesEqualU64(nodes, raw.nodes) {
			t.Fatalf("fanout %d: relayout is not idempotent", fanout)
		}
	}
}

// layoutUnshared lays a trie's arena out as index versions 7 and 8 stored it
// — breadth-first, every node storing its own code block right before its
// own palette — and returns the trie over that arena.
func layoutUnshared(t *Trie) *Trie {
	u := *t
	arena := make([]uint64, codeWords(t.fanout, 0)+1) // the sentinel
	type placed struct{ pal, d uint64 }
	var queue []placed
	place := func(old uint64) uint64 {
		arena = append(arena, t.codes(old)...)
		pal, palette := uint64(len(arena)), t.palette(old)
		arena = append(arena, palette...)
		queue = append(queue, placed{pal, uint64(len(palette))})
		return childEntry(pal, pal, old>>2&3)
	}
	for f, root := range t.roots {
		if root != 0 {
			u.roots[f] = place(root)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		for i := q.pal; i < q.pal+q.d; i++ {
			if e := arena[i]; isChild(e) {
				e = place(e) // place appends: index arena afterwards
				arena[i] = e
			}
		}
	}
	u.nodes = arena
	return &u
}

func slicesEqualU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRelayoutYieldsCanonicalFlat: the breadth-first form is the canonical
// flat form of a covering. A build-order (pre-relayout) arena is refused by
// TrieFromFlat — a mapped arena cannot be renumbered in place — and relaying
// it out yields word for word the arena Build produces, which loads. The
// unshared layout of index versions 7 and 8 loads only as such, and loading
// it relays it out into Build's arena too.
func TestRelayoutYieldsCanonicalFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sc := randomPrefixFreeCovering(t, rng, []int{1, 3, 4}, 130)
	for _, fanout := range fanouts {
		raw, err := build(sc, Config{Fanout: fanout})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		built, err := Build(sc, Config{Fanout: fanout})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if slices.Equal(raw.nodes, built.nodes) {
			t.Fatalf("fanout %d: build order is already breadth-first; the covering exercises nothing", fanout)
		}
		if _, err := TrieFromFlat(raw.Flat()); err == nil {
			t.Fatalf("fanout %d: build-order arena accepted as canonical", fanout)
		}
		raw.Relayout()
		if raw.roots != built.roots || !slices.Equal(raw.nodes, built.nodes) || !slices.Equal(raw.table, built.table) {
			t.Fatalf("fanout %d: relayout of the build-order arena differs from Build's", fanout)
		}
		if _, err := TrieFromFlat(raw.Flat()); err != nil {
			t.Fatalf("fanout %d: canonical arena rejected: %v", fanout, err)
		}
		old := layoutUnshared(built)
		if len(old.nodes) == len(built.nodes) {
			t.Fatalf("fanout %d: nothing shared; the covering exercises nothing", fanout)
		}
		f := old.Flat()
		if _, err := TrieFromFlat(f); err == nil {
			t.Fatalf("fanout %d: unshared arena accepted as a shared one", fanout)
		}
		f.Unshared = true
		loaded, err := TrieFromFlat(f)
		if err != nil {
			t.Fatalf("fanout %d: unshared arena rejected: %v", fanout, err)
		}
		if loaded.roots != built.roots || !slices.Equal(loaded.nodes, built.nodes) || !slices.Equal(loaded.table, built.table) {
			t.Fatalf("fanout %d: loading the unshared arena does not yield Build's", fanout)
		}
		if &loaded.nodes[0] == &f.Nodes[0] || len(f.Table) > 0 && &loaded.table[0] == &f.Table[0] {
			t.Fatalf("fanout %d: a relaid-out unshared trie still aliases its input", fanout)
		}
	}
}

// TestTrieFromFlatRejects probes structural validation with hand-assembled
// arenas the builder would never produce (fanout 4 unless a case says
// otherwise: one code word a node at every width, so the sentinel is the two
// words {0, 0} and the first root keeps its code word at offset 2 and its
// palette from offset 3). Every case is one edit away from a control that
// must load, and names the rule that must refuse it, so each rejection is
// for its own defect. The dense cases describe nodes slot by slot (node 0 is
// the sentinel, child entries hold node numbers) and palette-code them with
// compactArena; the raw cases spell out arena words.
func TestTrieFromFlatRejects(t *testing.T) {
	one := func(id uint64) uint64 { return id<<3 | tagOne }
	child := func(n uint64) uint64 { return n << 2 }
	denseOf := func(fanout int, roots [cellid.NumFaces]uint64, nodes []uint64, table []uint32) Flat {
		arena, entries := compactArena(fanout, nodes, roots, true)
		f := Flat{Fanout: uint32(fanout), Nodes: arena, Table: table}
		for face, root := range roots {
			if root != 0 {
				f.Roots[face] = entries[root]
			}
		}
		return f
	}
	dense := func(roots [cellid.NumFaces]uint64, nodes []uint64, table []uint32) Flat {
		return denseOf(4, roots, nodes, table)
	}
	var face0, face01 [cellid.NumFaces]uint64
	face0[0] = 1
	face01[0], face01[1] = 1, 2
	// raw is a face-0 trie of the given words after the sentinel, its root
	// coded in 1<<lw-bit codes.
	raw := func(lw uint64, words ...uint64) Flat {
		f := Flat{Fanout: 4, Nodes: append([]uint64{0, 0}, words...)}
		f.Roots[0] = childEntry(3, 3, lw)
		return f
	}
	// chain is a path of n nodes, each hanging from slot 0 of the one
	// before, the last holding a value.
	chain := func(n int) Flat {
		nodes := make([]uint64, (n+1)*4)
		for i := 1; i < n; i++ {
			nodes[i*4] = child(uint64(i + 1))
		}
		nodes[n*4] = one(7)
		return dense(face0, nodes, nil)
	}
	// gapValueGap is the root {empty, id 7, empty, empty} and the control of
	// most raw cases: palette {empty, id 7}, one-bit codes 0, 1, 0, 0.
	gapValueGap := func() Flat { return raw(0, 0b0010, 0, one(7)) }
	// childFirst is the root {child, empty, empty, empty} over a child
	// {id 3, …}: the root's palette {child, empty} at 3, the child's code
	// word at 5 and its palette at 6.
	childFirst := func() Flat { return raw(0, 0b1110, childEntry(6, 6, 0), 0, 0, one(3)) }
	// longPalette is a fanout-64 root of ids 0 … 19 in slots 0 … 19, the
	// rest empty.
	longPalette := func() Flat {
		nodes := make([]uint64, 2*64)
		for i := range uint64(20) {
			nodes[64+i] = one(i)
		}
		return denseOf(64, face0, nodes, nil)
	}

	for _, tc := range []struct {
		name      string
		want      string // the rule's error text
		bad, good func() Flat
	}{
		{
			// The format puts the empty sentinel first.
			name: "missing-sentinel",
			want: "lacks the sentinel",
			bad:  func() Flat { return Flat{Fanout: 4} },
			good: func() Flat { return dense([cellid.NumFaces]uint64{}, make([]uint64, 4), nil) },
		},
		{
			name: "sentinel-not-empty",
			want: "sentinel node is not empty",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[0], nodes[4] = one(7), one(7)
				return dense(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = one(7)
				return dense(face0, nodes, nil)
			},
		},
		{
			name: "sentinel-entry-not-zero",
			want: "sentinel node is not empty",
			bad: func() Flat {
				f := gapValueGap()
				f.Nodes[1] = one(7)
				return f
			},
			good: gapValueGap,
		},
		{
			// Every code but 0 would select past the sentinel's one-entry
			// palette.
			name: "sentinel-codes-not-zero",
			want: "sentinel node is not empty",
			bad: func() Flat {
				f := gapValueGap()
				f.Nodes[0] = 0b0010
				return f
			},
			good: gapValueGap,
		},
		{
			// An arena node no walk can reach is smuggled content.
			name: "unreachable-node",
			want: "past the last reachable node",
			bad: func() Flat {
				nodes := make([]uint64, 3*4) // sentinel, root, unreachable
				nodes[4] = one(7)
				return dense(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = one(7)
				return dense(face0, nodes, nil)
			},
		},
		{
			name: "trailing-words",
			want: "past the last reachable node",
			bad: func() Flat {
				f := gapValueGap()
				f.Nodes = append(f.Nodes, 0)
				return f
			},
			good: gapValueGap,
		},
		{
			// A root entry carries a node's palette offset and code width;
			// a value tag on it would be ignored by the walk.
			name: "root-not-a-child-entry",
			want: "is not a child entry",
			bad: func() Flat {
				f := gapValueGap()
				f.Roots[0] |= tagOne
				return f
			},
			good: gapValueGap,
		},
		{
			// An entry referencing a face root is forward and unshared, yet
			// breadth-first numbering puts roots first: by the time the
			// entry is scanned the root has been named already.
			name: "child-pointer-to-root",
			want: "not a stored shareable palette",
			bad: func() Flat {
				nodes := make([]uint64, 3*4) // sentinel, face-0 root, face-1 root
				nodes[4] = child(2)
				nodes[2*4] = one(5)
				return dense(face01, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2) // node 2 is a plain child
				nodes[2*4] = one(5)
				return dense(face0, nodes, nil)
			},
		},
		{
			// Nor may two faces name one root: a root's palette is never
			// shared, so each root stores its own.
			name: "shared-root",
			want: "not a stored shareable palette",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = one(5)
				f := dense(face0, nodes, nil)
				f.Roots[1] = f.Roots[0]
				return f
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = one(5)
				return dense(face0, nodes, nil)
			},
		},
		{
			// Two nodes referencing one child that is not a leaf make the
			// arena a DAG: its palette holds a child entry, and such a
			// palette is never shared. (Equal leaves are one shared node.)
			name: "shared-child",
			want: "which holds a child entry",
			bad: func() Flat {
				nodes := make([]uint64, 6*4)
				nodes[4], nodes[5] = child(2), child(3)
				nodes[2*4], nodes[3*4] = child(4), child(4)
				nodes[4*4] = child(5)
				nodes[5*4] = one(3)
				return dense(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 6*4)
				nodes[4], nodes[5] = child(2), child(3)
				nodes[2*4], nodes[3*4] = child(4), one(5)
				nodes[4*4] = child(5)
				nodes[5*4] = one(3)
				return dense(face0, nodes, nil)
			},
		},
		{
			// Children come after their parents: a reference at or before
			// its own node would let a walk loop. Code blocks may be named
			// backwards, but the palette of a node with children may not.
			name: "backward-pointer",
			want: "which holds a child entry",
			bad: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = child(1)
				return dense(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = one(1)
				return dense(face0, nodes, nil)
			},
		},
		{
			// The child's code words would sit right past the root, at the
			// arena's end; its palette lies beyond it.
			name: "child-out-of-range",
			want: "starts past the arena",
			bad: func() Flat {
				f := raw(0, 0b1110, 0, one(2))
				f.Nodes[3] = childEntry(uint64(len(f.Nodes))+1, uint64(len(f.Nodes))+1, 0)
				return f
			},
			good: func() Flat { return raw(0, 0b1110, 0, one(2)) },
		},
		{
			// The palette offset lands inside the child instead of past its
			// code words (which it stores: its codes are not the root's).
			name: "child-not-a-node-boundary",
			want: "breadth-first order puts it at",
			bad: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4+1] = one(3)
				f := dense(face0, nodes, nil)
				f.Nodes[3] += 1 << 4
				return f
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4+1] = one(3)
				return dense(face0, nodes, nil)
			},
		},
		{
			// Forward, unshared, on node boundaries — but the first child in
			// slot order must be the first child in the arena.
			name: "children-out-of-order",
			want: "breadth-first order puts it at",
			bad: func() Flat {
				nodes := make([]uint64, 4*4)
				nodes[4], nodes[5] = child(3), child(2)
				nodes[2*4], nodes[3*4] = one(3), one(4)
				return dense(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 4*4)
				nodes[4], nodes[5] = child(2), child(3)
				nodes[2*4], nodes[3*4] = one(3), one(4)
				return dense(face0, nodes, nil)
			},
		},
		{
			// The width bits are the only record of a node's code width: at
			// fanout 64 one-bit codes take one word, two-bit codes two, so
			// an entry claiming two-bit codes for the node right past the
			// root (which stores codes of its own) names its palette one
			// word early.
			name: "width-bits-disagree",
			want: "says 2-bit codes, the node at offset 5 has 1 code words",
			bad: func() Flat {
				nodes := make([]uint64, 3*64)
				nodes[64] = child(2)
				nodes[2*64+1] = one(3)
				f := denseOf(64, face0, nodes, nil)
				f.Nodes[3] |= 1 << 2
				return f
			},
			good: func() Flat {
				nodes := make([]uint64, 3*64)
				nodes[64] = child(2)
				nodes[2*64+1] = one(3)
				return denseOf(64, face0, nodes, nil)
			},
		},
		{
			// A child entry is one slot: one key chunk, one subtree.
			name: "child-run-spans-slots",
			want: "child entry in more than one slot",
			bad:  func() Flat { return raw(0, 0b1100, childEntry(6, 6, 0), 0, 0, one(3)) },
			good: childFirst,
		},
		{
			// Codes need not be adjacent to select one entry: codes 0, 1, 0,
			// 1 over {empty, child}.
			name: "child-in-two-slots",
			want: "child entry in more than one slot",
			bad:  func() Flat { return raw(0, 0b1010, 0, childEntry(6, 6, 0), 0, one(3)) },
			good: func() Flat { return raw(0, 0b0010, 0, childEntry(6, 6, 0), 0, one(3)) },
		},
		{
			// Slot 0 uses code 1 before any slot uses code 0: the palette
			// {empty, id 7} must be {id 7, empty}.
			name: "palette-not-first-use-order",
			want: "palette not in first-use order",
			bad:  func() Flat { return raw(0, 0b0001, 0, one(7)) },
			good: func() Flat { return raw(0, 0b1110, one(7), 0) },
		},
		{
			// Code 2 in a node of two distinct codes reads past the
			// palette, here past the arena.
			name: "code-past-palette",
			want: "code 2 is past its 2-entry palette",
			bad:  func() Flat { return raw(1, 0b1000, 0, one(7)) },
			good: gapValueGap,
		},
		{
			// Two distinct codes fit one bit.
			name: "width-not-minimal",
			want: "width not minimal",
			bad:  func() Flat { return raw(1, 0b0100, 0, one(7)) },
			good: gapValueGap,
		},
		{
			// A set bit past the four one-bit codes would be a fifth slot.
			name: "run-start-beyond-fanout",
			want: "code bits set past slot 3",
			bad: func() Flat {
				f := gapValueGap()
				f.Nodes[2] |= 1 << 4
				return f
			},
			good: gapValueGap,
		},
		{
			// Sixteen two-bit codes leave the code word's top half unused.
			name: "code-bits-past-fanout",
			want: "code bits set past slot 15",
			bad: func() Flat {
				nodes := make([]uint64, 2*16)
				nodes[16+1], nodes[16+2] = one(7), one(8)
				f := denseOf(16, face0, nodes, nil)
				f.Nodes[2] |= 1 << 40
				return f
			},
			good: func() Flat {
				nodes := make([]uint64, 2*16)
				nodes[16+1], nodes[16+2] = one(7), one(8)
				return denseOf(16, face0, nodes, nil)
			},
		},
		{
			// Distinct entries, or one covering has two encodings: codes
			// 0, 1, 2, 2 over {id 7, id 7, empty}.
			name: "adjacent-runs-equal",
			want: "duplicate palette entries",
			bad:  func() Flat { return raw(1, 0b10_10_01_00, one(7), one(7), 0) },
			good: func() Flat { return raw(0, 0b1100, one(7), 0) },
		},
		{
			// Codes 0, 1, 2, 1 over {id 7, empty, id 7}.
			name: "duplicate-palette-entries",
			want: "duplicate palette entries",
			bad:  func() Flat { return raw(1, 0b01_10_01_00, one(7), 0, one(7)) },
			good: func() Flat { return raw(0, 0b1010, one(7), 0) },
		},
		{
			// Past 16 entries the check sorts a copy: 21 entries at fanout
			// 64 (8-bit codes: eight code words after the two-word
			// sentinel, the palette from offset 10), entry 5 made entry 4.
			name: "duplicate-in-long-palette",
			want: "duplicate palette entries",
			bad: func() Flat {
				f := longPalette()
				f.Nodes[15] = f.Nodes[14]
				return f
			},
			good: longPalette,
		},
		{
			name: "node-runs-past-arena",
			want: "runs past the arena",
			bad: func() Flat {
				f := gapValueGap()
				f.Nodes = f.Nodes[:len(f.Nodes)-1]
				return f
			},
			good: gapValueGap,
		},
		{
			name: "table-offset-out-of-range",
			want: "table offset 4 out of range",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 4<<2 | tagOffset
				return dense(face0, nodes, []uint32{1, 8, 1, 9})
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return dense(face0, nodes, []uint32{1, 8, 1, 9})
			},
		},
		{
			// The run's true-hit count walks past the end of the table.
			name: "table-run-overflow",
			want: "overflows table",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return dense(face0, nodes, []uint32{3, 8, 1, 9})
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return dense(face0, nodes, []uint32{2, 8, 1, 0})
			},
		},
		{
			// A 60-bit key has 30 two-bit chunks; LookupBatch keeps a node
			// per chunk on a fixed stack.
			name: "path-deeper-than-key",
			want: "beyond the 60-bit key",
			bad:  func() Flat { return chain(31) },
			good: func() Flat { return chain(30) },
		},
		{
			// A terminal must reference something: a hit that names no
			// polygon is a cell Build itself refuses.
			name: "table-run-empty",
			want: "holds no references",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return dense(face0, nodes, []uint32{0, 0})
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return dense(face0, nodes, []uint32{0, 1, 9})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := TrieFromFlat(tc.bad()); err == nil {
				t.Error("malformed arena was accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("malformed arena refused with %q, want the rule %q", err, tc.want)
			}
			if _, err := TrieFromFlat(tc.good()); err != nil {
				t.Errorf("control arena rejected: %v", err)
			}
		})
	}
}
