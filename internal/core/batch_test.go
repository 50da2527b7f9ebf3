package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/supercover"
)

// randomPrefixFreeCovering builds a supercovering from random cells at mixed
// levels spread over the given faces, prefix-free by construction (cells
// contained in an already-chosen cell are dropped).
func randomPrefixFreeCovering(t *testing.T, rng *rand.Rand, faces []int, n int) *supercover.SuperCovering {
	t.Helper()
	var cells []cellid.ID
	for len(cells) < n {
		face := faces[rng.Intn(len(faces))]
		leaf := cellid.FromFaceIJ(face, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
		c := leaf.Parent(4 + rng.Intn(16))
		ok := true
		for _, prev := range cells {
			if prev.Intersects(c) {
				ok = false
				break
			}
		}
		if ok {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	var b supercover.Builder
	for i, c := range cells {
		// Alternate interior/boundary and spread cells over a few polygon
		// ids so all three entry encodings (one, two, table) appear.
		cov := &cover.Covering{}
		if i%2 == 0 {
			cov.Interior = []cellid.ID{c}
		} else {
			cov.Boundary = []cellid.ID{c}
		}
		for id := uint32(0); id <= uint32(i%4); id++ {
			if err := b.Add(id, cov); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

// probeMix returns leaves that exercise every walk outcome: range endpoints
// of indexed cells (hits at every depth), uniform random leaves (mostly
// misses and root-prefix mismatches), and leaves on entirely empty faces.
func probeMix(rng *rand.Rand, sc interface {
	NumCells() int
	Cell(int) cellid.ID
}) []cellid.ID {
	var leaves []cellid.ID
	for i := 0; i < sc.NumCells(); i++ {
		c := sc.Cell(i)
		leaves = append(leaves, c.RangeMin(), c.RangeMax())
	}
	for i := 0; i < 3000; i++ {
		face := rng.Intn(cellid.NumFaces)
		leaves = append(leaves, cellid.FromFaceIJ(face, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize)))
	}
	return leaves
}

func resultEqual(a, b *Result) bool {
	if len(a.True) != len(b.True) || len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.True {
		if a.True[i] != b.True[i] {
			return false
		}
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			return false
		}
	}
	return true
}

// TestLookupBatchMatchesLookup probes random leaves — sorted, reversed, and
// shuffled — and demands bit-identical results to one-at-a-time Lookup.
func TestLookupBatchMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := randomPrefixFreeCovering(t, rng, []int{0, 2, 5}, 120)
	for _, fanout := range fanouts {
		trie, err := Build(sc, Config{Fanout: fanout})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		// Query mix: leaves inside indexed cells (hits at every depth) and
		// uniform random leaves (mostly misses), on indexed and empty faces.
		var leaves []cellid.ID
		for i := 0; i < sc.NumCells(); i++ {
			c := sc.Cell(i)
			leaves = append(leaves, c.RangeMin(), c.RangeMax())
		}
		for i := 0; i < 4000; i++ {
			face := rng.Intn(cellid.NumFaces)
			leaves = append(leaves, cellid.FromFaceIJ(face, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize)))
		}
		orders := map[string]func(){
			"sorted":   func() { sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] }) },
			"reversed": func() { sort.Slice(leaves, func(i, j int) bool { return leaves[i] > leaves[j] }) },
			"shuffled": func() { rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] }) },
		}
		for name, arrange := range orders {
			arrange()
			want := make([]Result, len(leaves))
			wantHit := make([]bool, len(leaves))
			for i, leaf := range leaves {
				wantHit[i] = trie.Lookup(leaf, &want[i])
			}
			var res Result
			calls := 0
			trie.LookupBatch(leaves, &res, func(i int, hit bool) {
				if i != calls {
					t.Fatalf("fanout %d %s: emit order broken: got %d, want %d", fanout, name, i, calls)
				}
				calls++
				if hit != wantHit[i] {
					t.Fatalf("fanout %d %s leaf %v: batch hit=%v, Lookup hit=%v", fanout, name, leaves[i], hit, wantHit[i])
				}
				if !resultEqual(&res, &want[i]) {
					t.Fatalf("fanout %d %s leaf %v: batch %+v, Lookup %+v", fanout, name, leaves[i], res, want[i])
				}
			})
			if calls != len(leaves) {
				t.Fatalf("fanout %d %s: %d emits for %d leaves", fanout, name, calls, len(leaves))
			}
		}
	}
}

func TestLookupBatchEmpty(t *testing.T) {
	sc := randomPrefixFreeCovering(t, rand.New(rand.NewSource(1)), []int{1}, 5)
	trie, err := Build(sc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	trie.LookupBatch(nil, &res, func(int, bool) { t.Fatal("emit on empty batch") })
}

// TestLookupBatchBoundaries runs batch sizes at the walk's edges — empty,
// one leaf (a walk from the root), two (one resumption), and a full
// 4096-leaf chunk of cell-sorted probes, the batch the join engine hands
// it — through one reused Result, at every fanout, so neither the resume
// state nor the previous batch's references can leak into a result.
func TestLookupBatchBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := randomPrefixFreeCovering(t, rng, []int{1, 4}, 60)
	mix := probeMix(rng, sc)
	pool := make([]cellid.ID, 4096)
	for i := range pool {
		pool[i] = mix[rng.Intn(len(mix))]
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	for _, fanout := range fanouts {
		trie, err := Build(sc, Config{Fanout: fanout})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		var res, want Result
		for _, leaves := range [][]cellid.ID{nil, pool[:1], pool[len(pool)-2:], pool, pool[:2]} {
			calls := 0
			trie.LookupBatch(leaves, &res, func(i int, hit bool) {
				if i != calls {
					t.Fatalf("fanout %d n %d: emit order broken at %d", fanout, len(leaves), i)
				}
				calls++
				want.Reset()
				if wantHit := trie.Lookup(leaves[i], &want); hit != wantHit || !resultEqual(&res, &want) {
					t.Fatalf("fanout %d n %d leaf %v: %v %+v, Lookup %v %+v", fanout, len(leaves), leaves[i], hit, res, wantHit, want)
				}
			})
			if calls != len(leaves) {
				t.Fatalf("fanout %d: %d emits for %d leaves", fanout, calls, len(leaves))
			}
		}
	}
}
