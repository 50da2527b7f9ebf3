package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/actindex/act/internal/cellid"
)

// TestRelayoutPreservesLookupsAndIsIdempotent relays out a build-order trie
// and demands identical lookups before and after, then proves a second
// relayout is the identity — the property that keeps relaid tries
// byte-stable through the serializer.
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
		numNodes := 0 // the arena is a sequence of nodes in any order
		for off := uint64(0); off < uint64(len(raw.nodes)); off += raw.words + 1 + raw.nodeRuns(off) {
			numNodes++
		}
		if got := raw.Relayout(); got != numNodes {
			t.Fatalf("fanout %d: relayout of a fully reachable trie kept %d of %d nodes", fanout, got, numNodes)
		}
		var res Result
		for i, leaf := range leaves {
			res.Reset()
			if hit := raw.Lookup(leaf, &res); hit != wantHit[i] || !resultEqual(&res, &want[i]) {
				t.Fatalf("fanout %d leaf %v: lookup changed after relayout", fanout, leaf)
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
// it out yields word for word the arena Build produces, which loads.
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
	}
}

// TestTrieFromFlatRejects probes structural validation with hand-assembled
// arenas the builder would never produce (fanout 4: one bitmap word, one
// rank word, so the sentinel is the three words {1, 0, 0} and the first root
// sits at offset 3). Every case is one edit away from a control that must
// load, and names the rule that must refuse it, so each rejection is for its
// own defect. The dense cases describe nodes slot by slot (node 0 is the
// sentinel, child entries hold node numbers) and run-encode them with
// compactArena; the raw cases spell out arena words.
func TestTrieFromFlatRejects(t *testing.T) {
	one := func(id uint64) uint64 { return id<<3 | tagOne }
	child := func(n uint64) uint64 { return n << 2 }
	dense := func(roots [cellid.NumFaces]uint64, nodes []uint64, table []uint32) Flat {
		arena, offsets := compactArena(4, nodes)
		f := Flat{Fanout: 4, Nodes: arena, Table: table}
		for face, root := range roots {
			f.Roots[face] = offsets[root]
		}
		return f
	}
	var face0, face01 [cellid.NumFaces]uint64
	face0[0] = 1
	face01[0], face01[1] = 1, 2
	// raw is a face-0 trie of the given words after the sentinel.
	raw := func(words ...uint64) Flat {
		f := Flat{Fanout: 4, Nodes: append([]uint64{1, 0, 0}, words...)}
		f.Roots[0] = 3
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
	// most raw cases: runs start at slots 0, 1 and 2.
	gapValueGap := func() Flat { return raw(0b0111, 0, 0, one(7), 0) }

	for _, tc := range []struct {
		name      string
		want      string // the rule's error text
		bad, good func() Flat
	}{
		{
			// Misses and parked interleaved lanes read the sentinel as "no
			// entry".
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
				f.Nodes[2] = one(7)
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
			// An entry referencing a face root is forward and unshared, yet
			// breadth-first numbering puts roots first: by the time the
			// entry is scanned the root has been named already.
			name: "child-pointer-to-root",
			want: "breadth-first order puts it at",
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
			// Nor may two faces name one root: each names the next node.
			name: "shared-root",
			want: "breadth-first order puts it at",
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
			// Two entries referencing one child make the arena a DAG.
			name: "shared-child",
			want: "breadth-first order puts it at",
			bad: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4], nodes[6] = child(2), child(2)
				nodes[2*4] = one(3)
				return dense(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = one(3)
				return dense(face0, nodes, nil)
			},
		},
		{
			// Children come after their parents: a reference at or before
			// its own node would let a walk loop.
			name: "backward-pointer",
			want: "breadth-first order puts it at",
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
			name: "child-out-of-range",
			want: "starts past the arena",
			bad: func() Flat {
				f := raw(0b0011, 0, 0, one(2))
				f.Nodes[5] = uint64(len(f.Nodes)) << 2
				return f
			},
			good: func() Flat { return raw(0b0011, 0, 0, one(2)) },
		},
		{
			// The offset lands inside the child instead of on its header.
			name: "child-not-a-node-boundary",
			want: "breadth-first order puts it at",
			bad: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = one(3)
				f := dense(face0, nodes, nil)
				f.Nodes[5] += 1 << 2
				return f
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = one(3)
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
			// A child reference is one slot: one key chunk, one subtree.
			name: "child-run-spans-slots",
			want: "child reference spans 2 slots",
			bad:  func() Flat { return raw(0b0101, 0, 7<<2, 0, 0b0001, 0, one(3)) },
			good: func() Flat { return raw(0b0011, 0, 7<<2, 0, 0b0001, 0, one(3)) },
		},
		{
			name: "bit-0-clear",
			want: "slot 0 does not start a run",
			bad:  func() Flat { return raw(0b0110, 0, one(7), 0) },
			good: gapValueGap,
		},
		{
			name: "run-start-beyond-fanout",
			want: "run starts beyond slot 3",
			bad:  func() Flat { return raw(0b10111, 0, 0, one(7), 0, one(9)) },
			good: gapValueGap,
		},
		{
			// A wrong rank would send entry fetches outside the node.
			name: "rank-word-disagrees",
			want: "rank word",
			bad: func() Flat {
				f := gapValueGap()
				f.Nodes[4] = 1
				return f
			},
			good: gapValueGap,
		},
		{
			// Runs must be maximal, or one covering has two encodings.
			name: "adjacent-runs-equal",
			want: "hold the same entry",
			bad:  func() Flat { return raw(0b0111, 0, 0, one(7), one(7)) },
			good: gapValueGap,
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
