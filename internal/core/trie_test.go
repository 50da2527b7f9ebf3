package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/supercover"
)

var fanouts = []int{4, 16, 64, 256}

// buildSC assembles a super covering from per-polygon cell lists.
func buildSC(t *testing.T, polys map[uint32]struct{ boundary, interior []cellid.ID }) *supercover.SuperCovering {
	t.Helper()
	ids := make([]uint32, 0, len(polys))
	for id := range polys {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b supercover.Builder
	for _, id := range ids {
		p := polys[id]
		if err := b.Add(id, &cover.Covering{Boundary: p.boundary, Interior: p.interior}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuildRejectsBadFanout(t *testing.T) {
	sc := buildSC(t, nil)
	for _, f := range []int{0, 1, 2, 8, 128, 512} {
		if _, err := Build(sc, Config{Fanout: f}); !errors.Is(err, ErrBadFanout) {
			t.Errorf("fanout %d: got %v, want ErrBadFanout", f, err)
		}
	}
}

func TestLookupSingleAndDoublePayload(t *testing.T) {
	c1 := cellid.FromFace(0).Child(1).Child(2).Child(3)
	c2 := cellid.FromFace(0).Child(2)
	sc := buildSC(t, map[uint32]struct{ boundary, interior []cellid.ID }{
		10: {boundary: []cellid.ID{c1}, interior: []cellid.ID{c2}},
		20: {interior: []cellid.ID{c1}},
	})
	for _, f := range fanouts {
		trie, err := Build(sc, Config{Fanout: f})
		if err != nil {
			t.Fatalf("fanout %d: %v", f, err)
		}
		var res Result
		// c1 carries candidate 10 + true 20 (two inlined payloads).
		if !trie.Lookup(c1.RangeMin(), &res) {
			t.Fatalf("fanout %d: expected hit", f)
		}
		if len(res.True) != 1 || res.True[0] != 20 || len(res.Candidates) != 1 || res.Candidates[0] != 10 {
			t.Errorf("fanout %d: res = %+v", f, res)
		}
		// c2 carries a single true hit for 10.
		res.Reset()
		if !trie.Lookup(c2.RangeMax(), &res) {
			t.Fatalf("fanout %d: expected hit on c2", f)
		}
		if len(res.True) != 1 || res.True[0] != 10 || len(res.Candidates) != 0 {
			t.Errorf("fanout %d: c2 res = %+v", f, res)
		}
		// A leaf outside both cells misses.
		res.Reset()
		if trie.Lookup(cellid.FromFace(0).Child(0).RangeMin(), &res) {
			t.Errorf("fanout %d: unexpected hit", f)
		}
		if trie.Lookup(cellid.FromFace(5).RangeMin(), &res) {
			t.Errorf("fanout %d: hit on empty face", f)
		}
	}
}

func TestLookupTablePath(t *testing.T) {
	c := cellid.FromFace(1).Child(0).Child(0)
	d := cellid.FromFace(1).Child(3).Child(2)
	polys := map[uint32]struct{ boundary, interior []cellid.ID }{
		1: {boundary: []cellid.ID{c, d}},
		2: {interior: []cellid.ID{c, d}},
		3: {boundary: []cellid.ID{c, d}},
		4: {interior: []cellid.ID{c, d}},
	}
	sc := buildSC(t, polys)
	for _, f := range fanouts {
		trie, err := Build(sc, Config{Fanout: f})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		for _, cell := range []cellid.ID{c, d} {
			res.Reset()
			if !trie.Lookup(cell.RangeMin(), &res) {
				t.Fatalf("fanout %d: expected hit", f)
			}
			wantTrue := []uint32{2, 4}
			wantCand := []uint32{1, 3}
			sort.Slice(res.True, func(i, j int) bool { return res.True[i] < res.True[j] })
			sort.Slice(res.Candidates, func(i, j int) bool { return res.Candidates[i] < res.Candidates[j] })
			if len(res.True) != 2 || res.True[0] != wantTrue[0] || res.True[1] != wantTrue[1] {
				t.Errorf("fanout %d: True = %v, want %v", f, res.True, wantTrue)
			}
			if len(res.Candidates) != 2 || res.Candidates[0] != wantCand[0] || res.Candidates[1] != wantCand[1] {
				t.Errorf("fanout %d: Candidates = %v, want %v", f, res.Candidates, wantCand)
			}
		}
		// Both cells share one reference set: the table must hold exactly
		// one deduplicated run (1 + 2 + 1 + 2 words).
		st := trie.ComputeStats()
		if st.TableEntries != 6 {
			t.Errorf("fanout %d: TableEntries = %d, want 6 (deduplicated)", f, st.TableEntries)
		}
	}
}

func TestDenormalization(t *testing.T) {
	// A level-1 cell with fanout 256 occupies 64 entries of the root
	// node; every leaf below it must hit, leaves outside must miss.
	cell := cellid.FromFace(2).Child(3)
	sc := buildSC(t, map[uint32]struct{ boundary, interior []cellid.ID }{
		9: {interior: []cellid.ID{cell}},
	})
	for _, f := range fanouts {
		trie, err := Build(sc, Config{Fanout: f})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		var res Result
		for n := 0; n < 200; n++ {
			leaf := cellid.FromFaceIJ(2, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
			res.Reset()
			hit := trie.Lookup(leaf, &res)
			if want := cell.Contains(leaf); hit != want {
				t.Fatalf("fanout %d: Lookup(%v) = %v, want %v", f, leaf, hit, want)
			}
			if hit && (len(res.True) != 1 || res.True[0] != 9) {
				t.Fatalf("fanout %d: res = %+v", f, res)
			}
		}
	}
}

func TestDeepCellAllLevels(t *testing.T) {
	// Cells at every level 1..30 must round-trip through insert+lookup.
	rng := rand.New(rand.NewSource(99))
	for _, f := range fanouts {
		for level := 1; level <= cellid.MaxLevel; level++ {
			leaf := cellid.FromFaceIJ(0, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
			cell := leaf.Parent(level)
			sc := buildSC(t, map[uint32]struct{ boundary, interior []cellid.ID }{
				42: {boundary: []cellid.ID{cell}},
			})
			trie, err := Build(sc, Config{Fanout: f})
			if err != nil {
				t.Fatalf("fanout %d level %d: %v", f, level, err)
			}
			var res Result
			if !trie.Lookup(cell.RangeMin(), &res) || !trie.Lookup(cell.RangeMax(), &res) {
				t.Fatalf("fanout %d level %d: lost cell", f, level)
			}
			// A leaf just outside the cell must miss.
			out := cellid.ID(uint64(cell.RangeMax()) + 2)
			if out.IsValid() && out.Face() == cell.Face() {
				res.Reset()
				if trie.Lookup(out, &res) {
					t.Fatalf("fanout %d level %d: false hit outside cell", f, level)
				}
			}
		}
	}
}

func TestFaceCellDenormalizes(t *testing.T) {
	sc := buildSC(t, map[uint32]struct{ boundary, interior []cellid.ID }{
		1: {interior: []cellid.ID{cellid.FromFace(4)}},
	})
	trie, err := Build(sc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if !trie.Lookup(cellid.FromFaceIJ(4, 12345, 678910), &res) {
		t.Error("face-cell value lost")
	}
}

func TestOverlapRejected(t *testing.T) {
	// Hand-feed the builder overlapping cells (bypassing supercover's
	// conflict resolution) to verify the trie's own defense.
	parent := cellid.FromFace(0).Child(1)
	child := parent.Child(2)
	bb, err := newBuilder(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bb.add(parent, []supercover.Ref{{PolygonID: 1, Interior: true}}); err != nil {
		t.Fatal(err)
	}
	if err := bb.add(child, []supercover.Ref{{PolygonID: 2}}); !errors.Is(err, ErrOverlap) {
		t.Errorf("descending through value: got %v, want ErrOverlap", err)
	}
	if err := bb.add(parent, []supercover.Ref{{PolygonID: 3}}); !errors.Is(err, ErrOverlap) {
		t.Errorf("writing onto value: got %v, want ErrOverlap", err)
	}
	// A disjoint cell that arrives after a later one has closed its node
	// would be lost; the builder refuses the order instead.
	if err := bb.add(cellid.FromFace(0).Child(0), []supercover.Ref{{PolygonID: 4}}); !errors.Is(err, ErrOverlap) {
		t.Errorf("out-of-order cell: got %v, want ErrOverlap", err)
	}
	if err := bb.add(cellid.FromFace(0).Child(2), []supercover.Ref{{PolygonID: 5}}); err != nil {
		t.Errorf("next disjoint cell: %v", err)
	}
}

func TestInsertErrors(t *testing.T) {
	bb, err := newBuilder(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bb.add(cellid.FromFace(0).Child(1), nil); !errors.Is(err, ErrEmptyRefs) {
		t.Errorf("empty refs: got %v", err)
	}
	if err := bb.add(cellid.FromFace(0).Child(1),
		[]supercover.Ref{{PolygonID: 1 << 30}}); !errors.Is(err, ErrPolygonID) {
		t.Errorf("oversized polygon id: got %v", err)
	}
}

// TestAgainstReference cross-checks trie lookups against the super
// covering's binary-search lookup on randomized cell sets.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		polys := map[uint32]struct{ boundary, interior []cellid.ID }{}
		nPolys := 1 + rng.Intn(6)
		for p := 0; p < nPolys; p++ {
			var entry struct{ boundary, interior []cellid.ID }
			for c := 0; c < 1+rng.Intn(10); c++ {
				leaf := cellid.FromFaceIJ(rng.Intn(2), rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
				cell := leaf.Parent(1 + rng.Intn(cellid.MaxLevel))
				if rng.Intn(2) == 0 {
					entry.boundary = append(entry.boundary, cell)
				} else {
					entry.interior = append(entry.interior, cell)
				}
			}
			polys[uint32(p)] = entry
		}
		sc := buildSC(t, polys)
		for _, f := range fanouts {
			trie, err := Build(sc, Config{Fanout: f})
			if err != nil {
				t.Fatalf("trial %d fanout %d: %v", trial, f, err)
			}
			var res Result
			for q := 0; q < 500; q++ {
				var leaf cellid.ID
				if q%2 == 0 && sc.NumCells() > 0 {
					// Probe inside a random covering cell.
					cell := sc.Cell(rng.Intn(sc.NumCells()))
					span := uint64(cell.RangeMax()-cell.RangeMin()) / 2
					leaf = cellid.ID(uint64(cell.RangeMin()) + 2*uint64(rng.Int63n(int64(span+1))))
				} else {
					leaf = cellid.FromFaceIJ(rng.Intn(2), rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
				}
				res.Reset()
				hit := trie.Lookup(leaf, &res)
				refs, want := sc.Lookup(leaf)
				if hit != want {
					t.Fatalf("trial %d fanout %d: Lookup(%v) = %v, reference %v", trial, f, leaf, hit, want)
				}
				if !hit {
					continue
				}
				got := map[supercover.Ref]bool{}
				for _, id := range res.True {
					got[supercover.Ref{PolygonID: id, Interior: true}] = true
				}
				for _, id := range res.Candidates {
					got[supercover.Ref{PolygonID: id}] = true
				}
				if len(got) != len(refs) {
					t.Fatalf("trial %d fanout %d leaf %v: got %v, want %v", trial, f, leaf, got, refs)
				}
				for _, r := range refs {
					if !got[r] {
						t.Fatalf("trial %d fanout %d leaf %v: missing ref %v", trial, f, leaf, r)
					}
				}
			}
		}
	}
}

func TestLookupCountingBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	polys := map[uint32]struct{ boundary, interior []cellid.ID }{}
	for p := uint32(0); p < 20; p++ {
		leaf := cellid.FromFaceIJ(0, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
		polys[p] = struct{ boundary, interior []cellid.ID }{
			boundary: []cellid.ID{leaf.Parent(20 + rng.Intn(11))},
		}
	}
	sc := buildSC(t, polys)
	bounds := map[int]int{4: 30, 16: 15, 64: 10, 256: 8}
	for _, f := range fanouts {
		trie, err := Build(sc, Config{Fanout: f})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		for q := 0; q < 1000; q++ {
			leaf := cellid.FromFaceIJ(0, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
			res.Reset()
			_, n := trie.LookupCounting(leaf, &res)
			if n > bounds[f] {
				t.Fatalf("fanout %d: %d node accesses > bound %d", f, n, bounds[f])
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	c := cellid.FromFace(0).Child(1).Child(2).Child(3).Child(0)
	sc := buildSC(t, map[uint32]struct{ boundary, interior []cellid.ID }{
		5: {boundary: []cellid.ID{c}},
	})
	trie, err := Build(sc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := trie.ComputeStats()
	if st.Fanout != 256 {
		t.Errorf("Fanout = %d", st.Fanout)
	}
	if st.NumNodes < 1 {
		t.Errorf("NumNodes = %d", st.NumNodes)
	}
	// Per node four words of 256 one-bit codes; the sentinel's palette is
	// its one empty entry, every other node's the empty entry and its child
	// entry or value (the cell sits in no node's slot 0).
	if want := int64(st.NumNodes+1)*4*8 + 8 + int64(st.NumNodes)*2*8; st.TrieBytes != want {
		t.Errorf("TrieBytes = %d, want %d for %d nodes", st.TrieBytes, want, st.NumNodes)
	}
	if st.ChildPointers != st.NumNodes-1 || st.InlinedValues != 1 {
		t.Errorf("%d child pointers and %d inlined values for a %d-node path to one cell", st.ChildPointers, st.InlinedValues, st.NumNodes)
	}
	if st.TableBytes != 0 {
		t.Errorf("TableBytes = %d, want 0 (all inlined)", st.TableBytes)
	}
	if st.InlinedValues == 0 {
		t.Error("expected inlined values")
	}
	if st.TotalBytes != st.TrieBytes+st.TableBytes {
		t.Error("TotalBytes mismatch")
	}
	if st.MaxDepth < 1 || st.MaxDepth > 8 {
		t.Errorf("MaxDepth = %d", st.MaxDepth)
	}
}

func TestResultReset(t *testing.T) {
	r := Result{True: []uint32{1, 2}, Candidates: []uint32{3}}
	if r.Total() != 3 {
		t.Errorf("Total = %d", r.Total())
	}
	r.Reset()
	if len(r.True) != 0 || len(r.Candidates) != 0 || r.Total() != 0 {
		t.Error("Reset did not clear")
	}
	if cap(r.True) == 0 {
		t.Error("Reset should keep capacity")
	}
}

func TestDisableInlining(t *testing.T) {
	c := cellid.FromFace(0).Child(1).Child(2)
	sc := buildSC(t, map[uint32]struct{ boundary, interior []cellid.ID }{
		3: {boundary: []cellid.ID{c}},
	})
	inline, err := Build(sc, Config{Fanout: 256})
	if err != nil {
		t.Fatal(err)
	}
	noInline, err := Build(sc, Config{Fanout: 256, DisableInlining: true})
	if err != nil {
		t.Fatal(err)
	}
	if inline.ComputeStats().TableEntries != 0 {
		t.Error("inlined build should not use the table for one ref")
	}
	if noInline.ComputeStats().TableEntries == 0 {
		t.Error("no-inline build must route through the table")
	}
	var r1, r2 Result
	h1 := inline.Lookup(c.RangeMin(), &r1)
	h2 := noInline.Lookup(c.RangeMin(), &r2)
	if h1 != h2 || len(r1.Candidates) != len(r2.Candidates) || r1.Candidates[0] != r2.Candidates[0] {
		t.Errorf("results differ: %+v vs %+v", r1, r2)
	}
}
