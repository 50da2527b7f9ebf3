package core

import (
	"math/rand"
	"slices"
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
		numNodes := len(raw.nodes) / raw.fanout
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
// arenas the builder would never produce (fanout 4; node 0 is the sentinel).
// Every case is one edit away from a control that must load, so each
// rejection is for its own defect.
func TestTrieFromFlatRejects(t *testing.T) {
	one := func(id uint64) uint64 { return id<<3 | tagOne }
	child := func(n uint64) uint64 { return n << 2 }
	flat := func(roots [cellid.NumFaces]uint64, nodes []uint64, table []uint32) Flat {
		return Flat{Fanout: 4, Roots: roots, Nodes: nodes, Table: table}
	}
	var face0, face01 [cellid.NumFaces]uint64
	face0[0] = 1
	face01[0], face01[1] = 1, 2

	for _, tc := range []struct {
		name      string
		bad, good func() Flat
	}{
		{
			// Misses and parked interleaved lanes read node 0 as "no entry".
			name: "missing-sentinel",
			bad:  func() Flat { return flat([cellid.NumFaces]uint64{}, nil, nil) },
			good: func() Flat { return flat([cellid.NumFaces]uint64{}, make([]uint64, 4), nil) },
		},
		{
			name: "sentinel-not-empty",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[0], nodes[4] = one(7), one(7)
				return flat(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = one(7)
				return flat(face0, nodes, nil)
			},
		},
		{
			// An arena node no walk can reach is smuggled content.
			name: "unreachable-node",
			bad: func() Flat {
				nodes := make([]uint64, 3*4) // sentinel, root, unreachable
				nodes[4] = one(7)
				return flat(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = one(7)
				return flat(face0, nodes, nil)
			},
		},
		{
			// An entry referencing a face root is forward and unshared, yet
			// breadth-first numbering puts roots first and would leave the
			// entry pointing backward; roots count as referenced from the
			// start.
			name: "child-pointer-to-root",
			bad: func() Flat {
				nodes := make([]uint64, 3*4) // sentinel, face-0 root, face-1 root
				nodes[4] = child(2)
				nodes[2*4] = one(5)
				return flat(face01, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2) // node 2 is a plain child
				nodes[2*4] = one(5)
				return flat(face0, nodes, nil)
			},
		},
		{
			// Two entries referencing one child make the arena a DAG.
			name: "shared-child",
			bad: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4], nodes[5] = child(2), child(2)
				nodes[2*4] = one(3)
				return flat(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = one(3)
				return flat(face0, nodes, nil)
			},
		},
		{
			// Children are allocated after their parents: a pointer at or
			// before its own node would let a walk loop.
			name: "backward-pointer",
			bad: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = child(1)
				return flat(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 3*4)
				nodes[4] = child(2)
				nodes[2*4] = one(1)
				return flat(face0, nodes, nil)
			},
		},
		{
			name: "child-out-of-range",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = child(2)
				return flat(face0, nodes, nil)
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = one(2)
				return flat(face0, nodes, nil)
			},
		},
		{
			name: "table-offset-out-of-range",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 4<<2 | tagOffset
				return flat(face0, nodes, []uint32{1, 8, 1, 9})
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return flat(face0, nodes, []uint32{1, 8, 1, 9})
			},
		},
		{
			// The run's true-hit count walks past the end of the table.
			name: "table-run-overflow",
			bad: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return flat(face0, nodes, []uint32{3, 8, 1, 9})
			},
			good: func() Flat {
				nodes := make([]uint64, 2*4)
				nodes[4] = 0<<2 | tagOffset
				return flat(face0, nodes, []uint32{2, 8, 1, 0})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := TrieFromFlat(tc.bad()); err == nil {
				t.Error("malformed arena was accepted")
			}
			if _, err := TrieFromFlat(tc.good()); err != nil {
				t.Errorf("control arena rejected: %v", err)
			}
		})
	}
}
