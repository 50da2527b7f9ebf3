package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/supercover"
)

// TestBuildFromStreamMatchesMaterialized: a trie built straight from a
// merge's sorted input (supercover.Sorted), whose forward pass feeds the
// builder, has the flat form — roots, skips, prefixes and section bytes —
// of the trie built from the materialized super covering, at every fanout,
// and the root skips and prefixes of the rule that used to decide them
// ahead of the build (referenceRootSkips).
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
		// A face holding only its face cell, and nothing else.
		"face-cell-only": {
			{Boundary: []cellid.ID{cellid.FromFace(3)}},
		},
		// Single cells whose levels are whole numbers of node levels at
		// every fanout: the skip leaves the last node level of each path.
		"whole-node-levels": {
			{Interior: []cellid.ID{deep.Parent(12)}},
			{Boundary: []cellid.ID{leaf(4, 3<<20, 5<<20).Parent(24)}},
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
			sc := merge().Build()
			want, err := Build(sc, cfg)
			if err != nil {
				t.Fatalf("%s fanout %d: materialized: %v", name, fanout, err)
			}
			assertReferenceRootSkips(t, fmt.Sprintf("%s fanout %d", name, fanout), want, sc)
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

// assertReferenceRootSkips requires the trie built from sc to have the root
// skips and prefixes referenceRootSkips gives sc.
func assertReferenceRootSkips(t *testing.T, name string, tr *Trie, sc *supercover.SuperCovering) {
	t.Helper()
	skips, prefixes := referenceRootSkips(sc, tr.bits)
	if f := tr.Flat(); f.Skips != skips || f.Prefixes != prefixes {
		t.Fatalf("%s: root skips %v prefixes %#x, the rule's %v %#x", name, f.Skips, f.Prefixes, skips, prefixes)
	}
}

// TestBuildStreamSingleCellFace: a face whose merged covering is one cell
// gets its root skip from that cell's level (a chunk of its path stays below
// the skip), where a face of two or more cells gets it from their common
// ancestor — the two differ once the cell's level is a whole number of node
// levels. One tiny polygon around the center of a cell at levels 0, 4, 8,
// 12 and 24, at an ε its start cell fits, is such a face — at level 0 one
// holding only its face cell; the trie the descent streams must be the one
// the merge of its covering builds, at every fanout, with the root skip and
// prefix of the rule that used to decide them (referenceRootSkips).
func TestBuildStreamSingleCellFace(t *testing.T) {
	g := grid.NewPlanar()
	for _, level := range []int{0, 4, 8, 12, 24} {
		start := cellid.FromFaceIJ(0, 0x2a5a5a5a, 0x15a5a5a5).Parent(level)
		c := grid.CellRect(start).Center()
		const d = 1e-9
		poly := &geom.Polygon{Outer: geom.Ring{{X: c.X - d, Y: c.Y - d}, {X: c.X + d, Y: c.Y - d}, {X: c.X, Y: c.Y + d}}}
		// Every cell of the level fits an ε a fifth above the start
		// cell's diagonal; its children's diagonals are half of it.
		coverer, err := cover.NewCoverer(g, 1.2*grid.CellDiagonalMeters(g, start))
		if err != nil {
			t.Fatal(err)
		}
		cov, err := coverer.CoverProjected(0, poly)
		if err != nil {
			t.Fatal(err)
		}
		if len(cov.Boundary) != 1 || cov.Boundary[0] != start || len(cov.Interior) != 0 {
			t.Fatalf("level %d: covering %v %v, want the start cell %v alone", level, cov.Boundary, cov.Interior, start)
		}
		for _, fanout := range fanouts {
			cfg := Config{Fanout: fanout}
			var b supercover.Builder
			if err := b.Add(7, cov); err != nil {
				t.Fatal(err)
			}
			sc := b.Build()
			want, err := Build(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildStream(func(cell func(cellid.ID, []supercover.Ref) error) error {
				_, _, err := coverer.Descend([]cover.Shape{{Face: 0, Poly: poly, ID: 7}}, nil, cell)
				return err
			}, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertReferenceRootSkips(t, fmt.Sprintf("level %d fanout %d", level, fanout), got, sc)
			gf, wf := got.Flat(), want.Flat()
			if gf.Roots != wf.Roots || gf.Skips != wf.Skips || gf.Prefixes != wf.Prefixes {
				t.Fatalf("level %d fanout %d: descent's roots/skips/prefixes %v %v %v, merge's %v %v %v",
					level, fanout, gf.Roots, gf.Skips, gf.Prefixes, wf.Roots, wf.Skips, wf.Prefixes)
			}
			if !bytes.Equal(flatSection(t, gf), flatSection(t, wf)) {
				t.Fatalf("level %d fanout %d: descent's and merge's sections differ", level, fanout)
			}
		}
	}
}
