package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/supercover"
)

// TestBuildFromStreamMatchesMaterialized: a trie built straight from a
// merge's sorted input (supercover.Sorted), whose forward pass feeds the
// builder and whose root skips come from the sorted pairs alone, has the
// flat form — roots, skips, prefixes and section bytes — of the trie built
// from the materialized super covering, at every fanout.
func TestBuildFromStreamMatchesMaterialized(t *testing.T) {
	leaf := func(face, i, j int) cellid.ID { return cellid.FromFaceIJ(face, i, j) }
	deep := leaf(2, 0x2a5a5a5, 0x15a5a5a)
	cases := map[string][]*cover.Covering{
		// Face 0 holds one cell, whose level alone bounds its root skip;
		// face 2 holds many.
		"single-cell-face": {
			{Interior: []cellid.ID{leaf(0, 1<<20, 3<<20).Parent(9)}},
			{Boundary: []cellid.ID{deep.Parent(14), deep.Parent(20).Children()[3]}},
			{Boundary: []cellid.ID{leaf(2, 0x2a00000, 0x1500000).Parent(16)}},
		},
		// A level-0 face cell alone, denormalized to its four children.
		"face-cell": {
			{Interior: []cellid.ID{cellid.FromFace(1)}},
			{Boundary: []cellid.ID{deep.Parent(18)}},
		},
		// A face cell with a cell inside it: pushdown fills the face.
		"face-cell-over-cell": {
			{Interior: []cellid.ID{cellid.FromFace(2)}},
			{Boundary: []cellid.ID{deep.Parent(18)}},
		},
		// Two faces, each with cells at both ends of its range.
		"two-faces": {
			{Boundary: []cellid.ID{leaf(0, 0, 0).Parent(11), leaf(0, cellid.MaxSize-1, cellid.MaxSize-1).Parent(13)}},
			{Interior: []cellid.ID{leaf(5, 7<<24, 9<<24).Parent(8), leaf(5, 7<<24+1<<20, 9<<24).Parent(12)}},
		},
	}
	rng := rand.New(rand.NewSource(3402))
	for trial := 0; trial < 20; trial++ {
		var covs []*cover.Covering
		for p := 0; p < 1+rng.Intn(6); p++ {
			cov := &cover.Covering{}
			face := rng.Intn(cellid.NumFaces)
			for n := rng.Intn(30); n > 0; n-- {
				c := leaf(face, 5<<20+rng.Intn(1<<14), 3<<20+rng.Intn(1<<14)).Parent(12 + rng.Intn(18))
				if rng.Intn(3) == 0 {
					cov.Interior = append(cov.Interior, c)
				} else {
					cov.Boundary = append(cov.Boundary, c)
				}
			}
			covs = append(covs, cov)
		}
		cases["random"+string(rune('a'+trial))] = covs
	}
	for name, covs := range cases {
		merge := func() *supercover.Builder {
			b := &supercover.Builder{}
			for id, cov := range covs {
				if err := b.Add(uint32(id), cov); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}
		for _, fanout := range fanouts {
			cfg := Config{Fanout: fanout}
			want, err := Build(merge().Build(), cfg)
			if err != nil {
				t.Fatalf("%s fanout %d: materialized: %v", name, fanout, err)
			}
			sorted := merge().Sort()
			got, err := Build(sorted, cfg)
			if err != nil {
				t.Fatalf("%s fanout %d: streamed: %v", name, fanout, err)
			}
			gf, wf := got.Flat(), want.Flat()
			if gf.Roots != wf.Roots || gf.Skips != wf.Skips || gf.Prefixes != wf.Prefixes {
				t.Fatalf("%s fanout %d: streamed roots/skips/prefixes %v %v %v, materialized %v %v %v",
					name, fanout, gf.Roots, gf.Skips, gf.Prefixes, wf.Roots, wf.Skips, wf.Prefixes)
			}
			if !bytes.Equal(flatSection(t, gf), flatSection(t, wf)) {
				t.Fatalf("%s fanout %d: streamed and materialized sections differ", name, fanout)
			}
		}
	}
}
