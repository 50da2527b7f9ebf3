package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInterleaveWidth pins the deprecated lane-engine forwards the
// repository benchmark still names: InterleaveWidth is 1 whatever is asked,
// and LookupBatchInterleaved emits exactly what LookupBatch emits.
func TestInterleaveWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := randomPrefixFreeCovering(t, rng, []int{0, 3}, 80)
	trie, err := Build(sc, Config{Fanout: 64})
	if err != nil {
		t.Fatal(err)
	}
	leaves := probeMix(rng, sc)
	var res Result
	type emitted struct {
		i            int
		hit          bool
		trues, cands []uint32
	}
	record := func(out *[]emitted) func(int, bool) {
		return func(i int, hit bool) {
			*out = append(*out, emitted{i, hit, slices.Clone(res.True), slices.Clone(res.Candidates)})
		}
	}
	var want []emitted
	trie.LookupBatch(leaves, &res, record(&want))
	for _, width := range []int{InterleaveAuto, 8, 64} {
		if got := trie.InterleaveWidth(width); got != 1 {
			t.Errorf("InterleaveWidth(%d) = %d, want 1", width, got)
		}
		var got []emitted
		var bs BatchScratch
		trie.LookupBatchInterleaved(leaves, width, &bs, &res, record(&got))
		if len(got) != len(want) {
			t.Fatalf("width %d: %d emits, LookupBatch made %d", width, len(got), len(want))
		}
		for k, w := range want {
			if g := got[k]; g.i != w.i || g.hit != w.hit || !slices.Equal(g.trues, w.trues) || !slices.Equal(g.cands, w.cands) {
				t.Fatalf("width %d emit %d: %+v, LookupBatch emitted %+v", width, k, g, w)
			}
		}
	}
}
