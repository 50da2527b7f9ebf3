package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/supercover"
)

// differentialCoverings are the inputs of TestBuildMatchesDenseReference:
// seeded random prefix-free coverings (one face for a deep root skip,
// several for none; all three entry encodings), a world-spanning covering
// whose level-0 cell denormalizes into a whole root, a node of 8-bit codes,
// and the covering FuzzLookupBatch probes.
func differentialCoverings(t *testing.T) map[string]*supercover.SuperCovering {
	out := map[string]*supercover.SuperCovering{}
	for seed, faces := range [][]int{{3}, {0, 2, 5}, {1, 3, 4}, {0, 1, 2, 3, 4, 5}} {
		rng := rand.New(rand.NewSource(int64(41 + seed)))
		out[fmt.Sprintf("random-%d", seed)] = randomPrefixFreeCovering(t, rng, faces, 90+40*seed)
	}
	// One polygon's cells huddle under a single level-12 cell: the face's
	// common prefix — and with it the root skip — runs deep.
	deep := cellid.FromFaceIJ(4, 123456789, 987654321).Parent(12)
	var huddle supercover.Builder
	for id, cell := range []cellid.ID{deep.Child(0).Child(3), deep.Child(1), deep.Child(2).Child(2).Child(1).Child(0).Child(3), deep.Child(3).Child(0)} {
		cov := &cover.Covering{Interior: []cellid.ID{cell}}
		for p := 0; p <= id; p++ {
			if err := huddle.Add(uint32(p), cov); err != nil {
				t.Fatal(err)
			}
		}
	}
	out["root-skip"] = huddle.Build()
	// Faces 1 and 2 whole, a three-reference cell nested in face 2.
	var world supercover.Builder
	for id, cov := range []*cover.Covering{
		{Interior: []cellid.ID{cellid.FromFace(1), cellid.FromFace(2)}},
		{Boundary: []cellid.ID{cellid.FromFace(2).Child(1).Child(1)}},
		{Boundary: []cellid.ID{cellid.FromFace(2).Child(1).Child(1).Child(0)}, Interior: []cellid.ID{cellid.FromFace(5).Child(3)}},
	} {
		if err := world.Add(uint32(id), cov); err != nil {
			t.Fatal(err)
		}
	}
	out["face-cells"] = world.Build()
	// One node's worth of cells under a level-8 cell, 40 reference sets,
	// gaps and deeper cells among them: 8-bit codes over a palette of values,
	// the empty entry and child entries at fanout 64 and 256.
	var wide supercover.Builder
	under := cellid.FromFaceIJ(3, 987654321, 123456789).Parent(8)
	for s := 0; s < 256; s++ {
		if s%7 == 3 {
			continue
		}
		cell := under
		for k := 3; k >= 0; k-- {
			cell = cell.Child(s >> (2 * k) & 3)
		}
		if s%11 == 5 {
			cell = cell.Child(2).Child(1)
		}
		if err := wide.AddCell(cell, []supercover.Ref{{PolygonID: uint32(s % 40), Interior: s%2 == 0}}); err != nil {
			t.Fatal(err)
		}
	}
	out["wide-palettes"] = wide.Build()
	out["interleave-fuzz"], _ = batchFuzzTrie() // the key keeps the subtest names stable
	return out
}

// slotLeaves returns, for every slot of every node of the reference trie
// that a leaf cell can reach, one leaf whose walk reads that slot — so a
// comparison over them covers every code of every palette-coded node, every
// slot that selects it, and every empty slot.
func slotLeaves(d *denseTrie) []cellid.ID {
	t := d.enc.t
	var leaves []cellid.ID
	var node func(face int, n, key uint64, consumed uint)
	node = func(face int, n, key uint64, consumed uint) {
		for slot, e := range d.node(n) {
			k := key | uint64(slot)<<(64-consumed-d.bits)
			if k&0xf != 0 {
				continue // the deepest node's slots past the 60 path bits
			}
			leaves = append(leaves, cellid.FromFacePosLevel(face, k>>4<<1|1, cellid.MaxLevel))
			if isChild(e) {
				node(face, e>>2, k, consumed+d.bits)
			}
		}
	}
	for face, root := range d.roots {
		if root != 0 {
			node(face, root, t.rootPrefix[face], t.rootSkip[face])
		}
	}
	return leaves
}

// TestBuildMatchesDenseReference builds every covering with the streaming
// palette-coding builder and with the dense reference builder, at every
// fanout with inlining on and off, and demands that the two agree on
// everything observable: the arena (the reference's, palette-coded, word
// for word), roots and lookup table; Lookup, AppendRefs and LookupCounting's
// access count for a leaf in every slot of every node plus misses of every
// kind; LookupBatch over the same leaves in slot order and shuffled; and
// the Cells enumeration, in order.
func TestBuildMatchesDenseReference(t *testing.T) {
	fuzzStream := batchFuzzSeedLeaves()
	for name, sc := range differentialCoverings(t) {
		for _, fanout := range fanouts {
			for _, noInline := range []bool{false, true} {
				cfg := Config{Fanout: fanout, DisableInlining: noInline}
				t.Run(fmt.Sprintf("%s/fanout-%d/noinline-%v", name, fanout, noInline), func(t *testing.T) {
					ref, err := buildDense(sc, cfg)
					if err != nil {
						t.Fatal(err)
					}
					trie, err := Build(sc, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.flat()
					if got := trie.Flat(); !slices.Equal(got.Nodes, want.Nodes) || got.Roots != want.Roots ||
						!slices.Equal(got.Table, want.Table) || got.Skips != want.Skips || got.Prefixes != want.Prefixes {
						t.Fatalf("flat form differs from the palette-coded reference (%d vs %d arena words)", len(got.Nodes), len(want.Nodes))
					}
					st := trie.ComputeStats()
					if got, want := st.NumNodes, len(ref.nodes)/fanout-1; got != want {
						t.Errorf("NumNodes = %d, reference has %d", got, want)
					}
					if nodes, trieBytes, tableBytes := trie.Size(); nodes != st.NumNodes || trieBytes != st.TrieBytes || tableBytes != st.TableBytes {
						t.Errorf("Size() = %d nodes, %d + %d bytes; ComputeStats says %d, %d + %d", nodes, trieBytes, tableBytes, st.NumNodes, st.TrieBytes, st.TableBytes)
					}
					if loaded, err := TrieFromFlat(trie.Flat()); err != nil {
						t.Fatal(err)
					} else if nodes, _, _ := loaded.Size(); nodes != st.NumNodes {
						t.Errorf("the loaded trie's Size() counts %d nodes, ComputeStats %d", nodes, st.NumNodes)
					}

					leaves := slotLeaves(ref)
					rng := rand.New(rand.NewSource(int64(len(leaves))))
					leaves = append(leaves, probeMix(rng, sc)[2*sc.NumCells():]...) // random leaves: misses, prefix mismatches, empty faces
					leaves = append(leaves, fuzzStream...)

					wantRes := make([]Result, len(leaves))
					wantHit := make([]bool, len(leaves))
					var res Result
					for i, leaf := range leaves {
						matches, hit, accesses := ref.lookup(leaf, &wantRes[i])
						wantHit[i] = hit
						res.Reset()
						if got := trie.Lookup(leaf, &res); got != hit || !res.Equal(&wantRes[i]) {
							t.Fatalf("leaf %v: Lookup = %v %+v, reference %v %+v", leaf, got, res, hit, wantRes[i])
						}
						if got := trie.AppendRefs(leaf, nil); !slices.Equal(got, matches) {
							t.Fatalf("leaf %v: AppendRefs = %v, reference %v", leaf, got, matches)
						}
						res.Reset()
						if got, n := trie.LookupCounting(leaf, &res); got != hit || n != accesses || !res.Equal(&wantRes[i]) {
							t.Fatalf("leaf %v: LookupCounting = %v after %d accesses, reference %v after %d", leaf, got, n, hit, accesses)
						}
					}

					order := make([]int, len(leaves))
					for i := range order {
						order[i] = i
					}
					for pass := 0; pass < 2; pass++ {
						batch := make([]cellid.ID, len(order))
						for i, j := range order {
							batch[i] = leaves[j]
						}
						calls := 0
						trie.LookupBatch(batch, &res, func(i int, hit bool) {
							if i != calls {
								t.Fatalf("LookupBatch: emit %d out of order, want %d", i, calls)
							}
							calls++
							if j := order[i]; hit != wantHit[j] || !res.Equal(&wantRes[j]) {
								t.Fatalf("LookupBatch leaf %v: %v %+v, reference %v %+v", batch[i], hit, res, wantHit[j], wantRes[j])
							}
						})
						if calls != len(batch) {
							t.Fatalf("LookupBatch: %d emits for %d leaves", calls, len(batch))
						}
						rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					}

					wantCells := ref.cells()
					n := 0
					err = trie.Cells(func(cell cellid.ID, refs []supercover.Ref) error {
						if n >= len(wantCells) || cell != wantCells[n].cell || !slices.Equal(refs, wantCells[n].refs) {
							t.Fatalf("Cells[%d] = %v %v, reference enumerates %d cells and has %+v there", n, cell, refs, len(wantCells), wantCells[min(n, len(wantCells)-1)])
						}
						n++
						return nil
					})
					if err != nil || n != len(wantCells) {
						t.Fatalf("Cells visited %d of the reference's %d cells: %v", n, len(wantCells), err)
					}
				})
			}
		}
	}
}

// batchFuzzSeedLeaves are the probes FuzzLookupBatch seeds its corpus
// with: the first leaf of every cell of its covering.
func batchFuzzSeedLeaves() []cellid.ID {
	sc, _ := batchFuzzTrie()
	var leaves []cellid.ID
	for i := 0; i < sc.NumCells(); i++ {
		leaves = append(leaves, sc.Cell(i).RangeMin())
	}
	return leaves
}

// TestNodeShapes builds, at every fanout, a root whose slots hold d distinct
// entries — d = 1, 2, 3, 4, 5, 16, 17 and the fanout itself, where the
// fanout has that many slots — so that every code width a fanout can reach
// is built: the width the root's entry carries, the node's size, its
// palette in first-use order, every slot's lookup and the whole flat form
// (against the dense reference's palette coding) must come out as the table
// says.
func TestNodeShapes(t *testing.T) {
	wantBits := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 16: 4, 17: 8, 64: 8, 256: 8}
	for _, fanout := range fanouts {
		level := bits.TrailingZeros(uint(fanout)) / 2 // a cell fills one root slot
		for _, d := range []int{1, 2, 3, 4, 5, 16, 17, 64, 256} {
			if d > fanout || d > 17 && d != fanout {
				continue
			}
			t.Run(fmt.Sprintf("fanout-%d/d-%d", fanout, d), func(t *testing.T) {
				// Slot s holds polygon s mod d: first use in slot order is
				// polygon order.
				cells := make([]cellid.ID, fanout)
				var b supercover.Builder
				for s := range cells {
					cells[s] = cellid.FromFace(0)
					for k := level - 1; k >= 0; k-- {
						cells[s] = cells[s].Child(s >> (2 * k) & 3)
					}
					if err := b.AddCell(cells[s], []supercover.Ref{{PolygonID: uint32(s % d), Interior: true}}); err != nil {
						t.Fatal(err)
					}
				}
				sc := b.Build()
				trie, err := Build(sc, Config{Fanout: fanout})
				if err != nil {
					t.Fatal(err)
				}
				root := trie.roots[0]
				if got := 1 << (root >> 2 & 3); got != wantBits[d] {
					t.Errorf("root entry %#x carries %d-bit codes, want %d", root, got, wantBits[d])
				}
				palette := trie.palette(root)
				for c, e := range palette {
					if e != (uint64(c)<<1|1)<<2|tagOne {
						t.Fatalf("palette entry %d is %#x, want polygon %d's", c, e, c)
					}
				}
				words := paletteAt(trie.sentinel()) + 1 + codeWords(fanout, root>>2&3) + uint64(d)
				if len(palette) != d || uint64(len(trie.nodes)) != words {
					t.Errorf("%d palette entries in a %d-word arena, want %d in %d", len(palette), len(trie.nodes), d, words)
				}
				var res Result
				for s, cell := range cells {
					res.Reset()
					if !trie.Lookup(cell.RangeMax(), &res) || len(res.True) != 1 || res.True[0] != uint32(s%d) {
						t.Fatalf("slot %d: %+v, want polygon %d", s, res, s%d)
					}
				}
				ref, err := buildDense(sc, Config{Fanout: fanout})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := trie.Flat(), ref.flat(); !slices.Equal(got.Nodes, want.Nodes) || got.Roots != want.Roots {
					t.Errorf("flat form differs from the reference's palette coding")
				}
				if _, err := TrieFromFlat(trie.Flat()); err != nil {
					t.Errorf("own flat form rejected: %v", err)
				}
			})
		}
	}
}
