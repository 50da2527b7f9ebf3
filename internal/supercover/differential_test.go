package supercover

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
)

// mergeInput is one Add or AddCell call, replayed onto both builders.
type mergeInput struct {
	id   uint32          // Add: the polygon
	cov  *cover.Covering // Add: its covering; nil for AddCell
	cell cellid.ID       // AddCell
	refs []Ref           // AddCell
}

// assertMatchesReference builds the inputs with Build and with the
// reference merge and requires the three output columns to be equal, and
// the streamed merge to produce them too (assertStreamMatches).
func assertMatchesReference(t *testing.T, inputs []mergeInput) *SuperCovering {
	t.Helper()
	var b Builder
	var ref referenceBuilder
	for _, in := range inputs {
		if in.cov != nil {
			if err := b.Add(in.id, in.cov); err != nil {
				t.Fatal(err)
			}
			ref.Add(in.id, in.cov)
			continue
		}
		if err := b.AddCell(in.cell, in.refs); err != nil {
			t.Fatal(err)
		}
		ref.AddCell(in.cell, in.refs)
	}
	got, want := b.Build(), ref.Build()
	if !slices.Equal(got.cells, want.cells) {
		t.Fatalf("cells differ: got %d %v\nwant %d %v", len(got.cells), head(got.cells), len(want.cells), head(want.cells))
	}
	if !slices.Equal(got.refOff, want.refOff) {
		t.Fatalf("refOff differs: got %v\nwant %v", head(got.refOff), head(want.refOff))
	}
	if !slices.Equal(got.refs, want.refs) {
		t.Fatalf("refs differ: got %v\nwant %v", head(got.refs), head(want.refs))
	}
	assertStreamMatches(t, inputs, got)
	return got
}

func head[T any](s []T) []T { return s[:min(len(s), 24)] }

// clusteredCell draws a cell near one of a few anchor leaves, so that
// independent draws often nest or coincide.
func clusteredCell(rng *rand.Rand, faces int) cellid.ID {
	face := rng.Intn(faces)
	anchor := rng.Intn(3)
	i := anchor*(cellid.MaxSize/3) + rng.Intn(64)
	j := anchor*(cellid.MaxSize/5) + rng.Intn(64)
	level := cellid.MaxLevel - rng.Intn(12)
	if rng.Intn(8) == 0 {
		level = rng.Intn(cellid.MaxLevel + 1) // now and then a huge cell, down to the face itself
	}
	return cellid.FromFaceIJ(face, i, j).Parent(level)
}

// randomCoverings draws coverings that overlap across and within polygons.
func randomCoverings(rng *rand.Rand, polys, faces int, firstID uint32) []mergeInput {
	inputs := make([]mergeInput, polys)
	for p := range inputs {
		cov := &cover.Covering{}
		for n := 1 + rng.Intn(40); n > 0; n-- {
			cell := clusteredCell(rng, faces)
			switch rng.Intn(5) {
			case 0:
				cov.Interior = append(cov.Interior, cell)
			case 1: // the same cell with both flags: the candidate must win
				cov.Interior = append(cov.Interior, cell)
				cov.Boundary = append(cov.Boundary, cell)
			default:
				cov.Boundary = append(cov.Boundary, cell)
			}
		}
		inputs[p] = mergeInput{id: firstID + uint32(p), cov: cov}
	}
	return inputs
}

func TestBuildMatchesReferenceOnOverlappingPolygons(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	for trial := 0; trial < 300; trial++ {
		faces := 1
		if trial%3 == 0 {
			faces = cellid.NumFaces
		}
		inputs := randomCoverings(rng, 1+rng.Intn(8), faces, uint32(rng.Intn(1000)))
		rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
		assertMatchesReference(t, inputs)
	}
}

// Chains: every level of one leaf's ancestry, owned by a handful of polygons
// in random order, so each cell both inherits and is pushed down.
func TestBuildMatchesReferenceOnAncestorChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	for trial := 0; trial < 100; trial++ {
		leaf := cellid.FromFaceIJ(rng.Intn(cellid.NumFaces), rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
		covs := make([]*cover.Covering, 1+rng.Intn(4))
		for i := range covs {
			covs[i] = &cover.Covering{}
		}
		for level := 0; level <= cellid.MaxLevel; level++ {
			if rng.Intn(3) == 0 {
				continue
			}
			cov := covs[rng.Intn(len(covs))]
			if rng.Intn(2) == 0 {
				cov.Boundary = append(cov.Boundary, leaf.Parent(level))
			} else {
				cov.Interior = append(cov.Interior, leaf.Parent(level))
			}
		}
		var inputs []mergeInput
		for i, cov := range covs {
			inputs = append(inputs, mergeInput{id: uint32(i), cov: cov})
		}
		assertMatchesReference(t, inputs)
	}
}

// Compaction without sources: a merged covering's cells re-enter through
// AddCell — in arbitrary cell order, true hits ahead of candidates within a
// cell, which is how core.Trie.Cells hands them over — with some polygons
// filtered out as tombstoned, and fresh coverings are merged on top.
func TestBuildMatchesReferenceOnReingestion(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	for trial := 0; trial < 100; trial++ {
		base := assertMatchesReference(t, randomCoverings(rng, 2+rng.Intn(6), 2, 0))
		dead := uint32(rng.Intn(8))
		var inputs []mergeInput
		for i := 0; i < base.NumCells(); i++ {
			var hits, candidates []Ref
			for _, r := range base.Refs(i) {
				switch {
				case r.PolygonID == dead:
				case r.Interior:
					hits = append(hits, r)
				default:
					candidates = append(candidates, r)
				}
			}
			if refs := append(hits, candidates...); len(refs) > 0 {
				inputs = append(inputs, mergeInput{cell: base.Cell(i), refs: refs})
			}
		}
		inputs = append(inputs, randomCoverings(rng, 1+rng.Intn(3), 2, 8)...)
		rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
		assertMatchesReference(t, inputs)
	}
}

// fuzzInputs decodes fuzz bytes into merge inputs, five bytes a cell: face
// and kind, i, j, level, polygon. Coordinates are coarse on purpose — a
// 256 × 256 lattice — so that mutation finds nesting.
func fuzzInputs(data []byte) []mergeInput {
	var inputs []mergeInput
	for ; len(data) >= 5; data = data[5:] {
		face := int(data[0]>>4) % cellid.NumFaces
		i := int(data[1]) * (cellid.MaxSize / 256)
		j := int(data[2]) * (cellid.MaxSize / 256)
		cell := cellid.FromFaceIJ(face, i, j).Parent(int(data[3]) % (cellid.MaxLevel + 1))
		id := uint32(data[4] % 16)
		switch data[0] & 3 {
		case 0:
			inputs = append(inputs, mergeInput{id: id, cov: &cover.Covering{Boundary: []cellid.ID{cell}}})
		case 1:
			inputs = append(inputs, mergeInput{id: id, cov: &cover.Covering{Interior: []cellid.ID{cell}}})
		case 2:
			inputs = append(inputs, mergeInput{id: id, cov: &cover.Covering{Boundary: []cellid.ID{cell}, Interior: []cellid.ID{cell}}})
		default: // a merged cell: a true hit ahead of a candidate with a smaller id
			inputs = append(inputs, mergeInput{cell: cell, refs: []Ref{{PolygonID: id + 1, Interior: true}, {PolygonID: id}}})
		}
	}
	return inputs
}

func FuzzSupercoverMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 10, 12, 1})
	// A cell, its parent and its grandparent from three polygons.
	f.Add([]byte{0, 10, 10, 8, 1, 1, 10, 10, 7, 2, 0, 10, 10, 6, 3})
	// One polygon, one cell, both flags; then the same through AddCell.
	f.Add([]byte{2, 200, 3, 20, 5, 3, 200, 3, 20, 5})
	// A face cell over a leaf, and a cell on another face.
	f.Add([]byte{0, 0, 0, 0, 1, 1, 77, 78, 30, 2, 0x50, 1, 2, 9, 3})
	// Siblings under a shared ancestor, duplicates included.
	f.Add([]byte{0, 0, 0, 3, 1, 0, 32, 0, 3, 2, 0, 0, 32, 3, 2, 0, 0, 0, 2, 4, 0, 0, 0, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 5*200 {
			t.Skip()
		}
		sc := assertMatchesReference(t, fuzzInputs(data))
		for i := 1; i < sc.NumCells(); i++ {
			if sc.Cell(i-1) >= sc.Cell(i) || sc.Cell(i-1).Intersects(sc.Cell(i)) {
				t.Fatalf("cells %v and %v out of order or nested", sc.Cell(i-1), sc.Cell(i))
			}
		}
	})
}

// assertStreamMatches merges the inputs again without materializing them —
// Sort, then the forward pass streamed through Cells, twice — and requires
// the streamed cells and references to be sc's. Then it merges them as a
// compaction does: the first half of the inputs sorted, the second merged
// on its own (Build) and streamed as Merge's run, which must again hand out
// sc, the reference merge of all of them.
func assertStreamMatches(t *testing.T, inputs []mergeInput, sc *SuperCovering) {
	t.Helper()
	collect := func(merge func(fn func(cellid.ID, []Ref) error) error) *SuperCovering {
		got := &SuperCovering{}
		if err := merge(func(cell cellid.ID, refs []Ref) error {
			got.append(cell, refs)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got.refOff = append(got.refOff, uint32(len(got.refs)))
		return got
	}
	same := func(what string, got *SuperCovering, sorted *Sorted) {
		t.Helper()
		if !slices.Equal(got.cells, sc.cells) || !slices.Equal(got.refOff, sc.refOff) || !slices.Equal(got.refs, sc.refs) {
			t.Fatalf("%s: %d cells %v %v, Build %d cells %v %v", what, len(got.cells), head(got.cells), head(got.refs), len(sc.cells), head(sc.cells), head(sc.refs))
		}
		if sorted.NumCells() != sc.NumCells() {
			t.Fatalf("%s: NumCells %d after streaming %d cells", what, sorted.NumCells(), sc.NumCells())
		}
	}
	var b Builder
	addAll(t, &b, inputs)
	sorted := b.Sort()
	for pass := 0; pass < 2; pass++ {
		same(fmt.Sprintf("pass %d", pass), collect(sorted.Cells), sorted)
	}

	var first, second Builder
	half := len(inputs) / 2
	addAll(t, &first, inputs[:half])
	addAll(t, &second, inputs[half:])
	sorted, run := first.Sort(), second.Build()
	same("merged with a run", collect(func(fn func(cellid.ID, []Ref) error) error { return sorted.Merge(run.Cells, fn) }), sorted)
}

// addAll replays the inputs onto b.
func addAll(t *testing.T, b *Builder, inputs []mergeInput) {
	t.Helper()
	for _, in := range inputs {
		if in.cov != nil {
			if err := b.Add(in.id, in.cov); err != nil {
				t.Fatal(err)
			}
		} else if err := b.AddCell(in.cell, in.refs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildAllocations holds the merge to a constant number of allocations:
// the pair list, the sort's digit counts, the three output columns, the
// stacks and the few times those grow — not one per output cell; streamed,
// without the output columns.
func TestBuildAllocations(t *testing.T) {
	// A 260 × 203 block of level-16 cells split among 100 polygons in
	// stripes, each overlapping the next two, all under one level-6 cell that
	// four of the polygons also hold.
	var covs []*cover.Covering
	cells := 0
	for p := 0; p < 100; p++ {
		cov := &cover.Covering{}
		for i := 0; i < 260; i++ {
			for j := p * 2; j < p*2+5; j++ {
				cell := cellid.FromFaceIJ(0, i<<14, j<<14).Parent(16)
				if j < p*2+3 {
					cov.Interior = append(cov.Interior, cell)
				} else {
					cov.Boundary = append(cov.Boundary, cell)
				}
			}
		}
		if p%25 == 0 {
			cov.Boundary = append(cov.Boundary, cellid.FromFaceIJ(0, 0, p<<15).Parent(6))
		}
		slices.Sort(cov.Interior)
		slices.Sort(cov.Boundary)
		cells += cov.NumCells()
		covs = append(covs, cov)
	}
	if cells < 50_000 {
		t.Fatalf("input has %d cells, want at least 50000", cells)
	}
	var b Builder
	var out *SuperCovering
	allocs := testing.AllocsPerRun(5, func() {
		b = Builder{}
		for p, cov := range covs {
			if err := b.Add(uint32(p), cov); err != nil {
				t.Fatal(err)
			}
		}
		out = b.Build()
	})
	if out.NumCells() < 50_000 {
		t.Fatalf("output has %d cells, want at least 50000", out.NumCells())
	}
	// The growth of Add's list is part of the count.
	if allocs > 48 {
		t.Errorf("Add + Build allocate %v times for %d cells, want at most 48", allocs, out.NumCells())
	}
	t.Logf("%d input cells, %d output cells, %v allocations", cells, out.NumCells(), allocs)

	// Streamed, as the index builds: no output columns at all.
	streamed := 0
	allocs = testing.AllocsPerRun(5, func() {
		b = Builder{}
		for p, cov := range covs {
			if err := b.Add(uint32(p), cov); err != nil {
				t.Fatal(err)
			}
		}
		streamed = 0
		_ = b.Sort().Cells(func(cellid.ID, []Ref) error { streamed++; return nil })
	})
	if streamed != out.NumCells() {
		t.Fatalf("streamed %d cells, Build %d", streamed, out.NumCells())
	}
	if allocs > 32 {
		t.Errorf("Add + Sort + Cells allocate %v times for %d cells, want at most 32", allocs, streamed)
	}
	t.Logf("streamed: %v allocations", allocs)

}

// TestSortPairsMatchesWide: the 8-byte-record sort and the two-word sort
// agree on inputs whose varying bits sit anywhere — only the low position
// bits, only the face, only the polygon ids, position bits shared below the
// varying ones — and in any input order.
func TestSortPairsMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(3401))
	leaf := cellid.FromFaceIJ(0, 0x2a5a5a5, 0x15a5a5a)
	shapes := map[string]func() pair{
		"low-bits": func() pair {
			return makePair(leaf.Parent(20).Children()[rng.Intn(4)], Ref{PolygonID: uint32(rng.Intn(3))})
		},
		"faces-only": func() pair {
			return makePair(cellid.FromFaceIJ(rng.Intn(cellid.NumFaces), 0x2a5a5a5, 0x15a5a5a).Parent(17), Ref{PolygonID: 7})
		},
		"ids-only": func() pair {
			return makePair(leaf.Parent(12), Ref{PolygonID: uint32(rng.Intn(MaxPolygonID)), Interior: rng.Intn(2) == 0})
		},
		"clustered": func() pair {
			return makePair(clusteredCell(rng, 1), Ref{PolygonID: uint32(rng.Intn(40)), Interior: rng.Intn(2) == 0})
		},
		"too-wide": func() pair {
			return makePair(clusteredCell(rng, cellid.NumFaces), Ref{PolygonID: uint32(rng.Intn(MaxPolygonID))})
		},
	}
	for name, draw := range shapes {
		for trial := 0; trial < 20; trial++ {
			in := make([]pair, 1+rng.Intn(300))
			for i := range in {
				in[i] = draw()
			}
			want := sortPairsWide(slices.Clone(in))
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			if got := sortPairs(in); !slices.Equal(got, want) {
				t.Fatalf("%s trial %d: record sort %v, two-word sort %v", name, trial, head(got), head(want))
			}
		}
	}
}
