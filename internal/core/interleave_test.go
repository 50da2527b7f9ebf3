package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/actindex/act/internal/cellid"
)

// interleaveWidths are the lane counts the parity suite proves against the
// scalar walk, deliberately including non-powers-of-two (3, 7) so lane
// refill and retirement run off the natural alignment of the batch.
var interleaveWidths = []int{1, 2, 3, 7, 8, 16}

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

// TestLookupBatchInterleavedMatchesLookup demands, for every fanout, width,
// and input ordering, that the interleaved engine emits exactly what scalar
// Lookup produces per leaf — same emit order, same hit flag, same reference
// split — on a cross-face probe mix.
func TestLookupBatchInterleavedMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := randomPrefixFreeCovering(t, rng, []int{0, 2, 5}, 120)
	for _, fanout := range fanouts {
		trie, err := Build(sc, Config{Fanout: fanout})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		leaves := probeMix(rng, sc)
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
			for _, width := range interleaveWidths {
				var bs BatchScratch
				var res Result
				calls := 0
				trie.LookupBatchInterleaved(leaves, width, &bs, &res, func(i int, hit bool) {
					if i != calls {
						t.Fatalf("fanout %d %s width %d: emit order broken: got %d, want %d", fanout, name, width, i, calls)
					}
					calls++
					if hit != wantHit[i] {
						t.Fatalf("fanout %d %s width %d leaf %v: hit=%v, Lookup hit=%v", fanout, name, width, leaves[i], hit, wantHit[i])
					}
					if !resultEqual(&res, &want[i]) {
						t.Fatalf("fanout %d %s width %d leaf %v: got %+v, want %+v", fanout, name, width, leaves[i], res, want[i])
					}
				})
				if calls != len(leaves) {
					t.Fatalf("fanout %d %s width %d: %d emits for %d leaves", fanout, name, width, calls, len(leaves))
				}
			}
		}
	}
}

// TestLookupBatchInterleavedBoundaries runs batch sizes straddling the lane
// count — empty, single, width±1, exact multiples, and one extra — so lane
// refill at the stream's tail and lane retirement both fire with partially
// filled lane sets.
func TestLookupBatchInterleavedBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := randomPrefixFreeCovering(t, rng, []int{1, 4}, 60)
	trie, err := Build(sc, Config{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	pool := probeMix(rng, sc)
	for _, width := range interleaveWidths {
		for _, n := range []int{0, 1, width - 1, width, width + 1, 3 * width, 3*width + 1} {
			if n < 0 || n > len(pool) {
				continue
			}
			leaves := pool[:n]
			var bs BatchScratch
			var res, want Result
			calls := 0
			trie.LookupBatchInterleaved(leaves, width, &bs, &res, func(i int, hit bool) {
				if i != calls {
					t.Fatalf("width %d n %d: emit order broken at %d", width, n, i)
				}
				calls++
				want.Reset()
				wantHit := trie.Lookup(leaves[i], &want)
				if hit != wantHit || !resultEqual(&res, &want) {
					t.Fatalf("width %d n %d leaf %v: diverges from Lookup", width, n, leaves[i])
				}
			})
			if calls != n {
				t.Fatalf("width %d: %d emits for %d leaves", width, calls, n)
			}
		}
	}
}

// TestLookupBatchInterleavedScratchReuse runs two differently sized batches
// through one scratch to prove stale lane and entry state cannot leak
// between batches.
func TestLookupBatchInterleavedScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := randomPrefixFreeCovering(t, rng, []int{0, 3}, 80)
	trie, err := Build(sc, Config{Fanout: 64})
	if err != nil {
		t.Fatal(err)
	}
	pool := probeMix(rng, sc)
	var bs BatchScratch
	var res, want Result
	for _, n := range []int{len(pool), 17, len(pool) / 2, 1} {
		leaves := pool[:n]
		trie.LookupBatchInterleaved(leaves, 8, &bs, &res, func(i int, hit bool) {
			want.Reset()
			wantHit := trie.Lookup(leaves[i], &want)
			if hit != wantHit || !resultEqual(&res, &want) {
				t.Fatalf("n %d leaf %v: diverges from Lookup after scratch reuse", n, leaves[i])
			}
		})
	}
}

// TestInterleaveWidth pins the width resolution policy: explicit widths pass
// through (clamped to MaxInterleave), auto selects scalar for tries up to
// interleaveMinBytes and 8 lanes beyond.
func TestInterleaveWidth(t *testing.T) {
	small := &Trie{fanout: 256, nodes: make([]uint64, 4*256)}
	big := &Trie{fanout: 256, nodes: make([]uint64, (interleaveMinBytes/8)+256)}
	cases := []struct {
		trie      *Trie
		requested int
		want      int
	}{
		{small, InterleaveAuto, 1},
		{big, InterleaveAuto, 8},
		{small, 4, 4},
		{big, 1, 1},
		{big, MaxInterleave + 50, MaxInterleave},
	}
	for _, c := range cases {
		if got := c.trie.InterleaveWidth(c.requested); got != c.want {
			t.Errorf("InterleaveWidth(%d) on %d-byte trie = %d, want %d",
				c.requested, c.trie.MemoryBytes(), got, c.want)
		}
	}
}
