package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/supercover"
)

// fuzzFlat builds a small deterministic trie — inlined payloads, a
// 3-reference lookup-table run, and multiple depths — whose flat form is the
// fuzzer's well-formed seed.
func fuzzFlat(tb testing.TB, fanout int) Flat {
	tb.Helper()
	base := cellid.FromFace(0)
	c1 := base.Child(0).Child(1).Child(2)
	c2 := base.Child(0).Child(3)
	c3 := base.Child(1).Child(2).Child(3).Child(0)
	c4 := base.Child(2)
	c5 := base.Child(3).Child(3).Child(3)
	var scb supercover.Builder
	for id, cov := range []*cover.Covering{
		{Interior: []cellid.ID{c1, c4}, Boundary: []cellid.ID{c2}},
		{Interior: []cellid.ID{c3}, Boundary: []cellid.ID{c1, c5}},
		{Boundary: []cellid.ID{c1, c2, c5}},
	} {
		if err := scb.Add(uint32(id), cov); err != nil {
			tb.Fatal(err)
		}
	}
	trie, err := Build(scb.Build(), Config{Fanout: fanout})
	if err != nil {
		tb.Fatal(err)
	}
	return trie.Flat()
}

// flatHeadSize is the wire size of the fuzzed per-face root metadata: root
// index, skip and prefix as three uint64 per face.
const flatHeadSize = cellid.NumFaces * 3 * 8

// encodeFlatFuzz lays a Flat out as the fuzz target's arguments; decode
// inverts it, padding a short head with zeros and dropping the bytes of a
// trailing partial word.
func encodeFlatFuzz(f Flat) (fanoutSel uint8, head, nodes, table []byte) {
	head = make([]byte, flatHeadSize)
	for i := 0; i < cellid.NumFaces; i++ {
		binary.LittleEndian.PutUint64(head[24*i:], f.Roots[i])
		binary.LittleEndian.PutUint64(head[24*i+8:], f.Skips[i])
		binary.LittleEndian.PutUint64(head[24*i+16:], f.Prefixes[i])
	}
	for _, w := range f.Nodes {
		nodes = binary.LittleEndian.AppendUint64(nodes, w)
	}
	for _, w := range f.Table {
		table = binary.LittleEndian.AppendUint32(table, w)
	}
	return uint8(bits.TrailingZeros32(f.Fanout)/2 - 1), head, nodes, table
}

func decodeFlatFuzz(fanoutSel uint8, head, nodes, table []byte) Flat {
	f := Flat{Fanout: 4 << (2 * (fanoutSel & 3))}
	var h [flatHeadSize]byte
	copy(h[:], head)
	for i := 0; i < cellid.NumFaces; i++ {
		f.Roots[i] = binary.LittleEndian.Uint64(h[24*i:])
		f.Skips[i] = binary.LittleEndian.Uint64(h[24*i+8:])
		f.Prefixes[i] = binary.LittleEndian.Uint64(h[24*i+16:])
	}
	f.Nodes = make([]uint64, len(nodes)/8)
	for i := range f.Nodes {
		f.Nodes[i] = binary.LittleEndian.Uint64(nodes[8*i:])
	}
	f.Table = make([]uint32, len(table)/4)
	for i := range f.Table {
		f.Table[i] = binary.LittleEndian.Uint32(table[4*i:])
	}
	return f
}

// flatFuzzSeed is one argument tuple of FuzzTrieFromFlat.
type flatFuzzSeed struct {
	fanoutSel          uint8
	head, nodes, table []byte
}

// flatFuzzSeeds are the target's seeds: a well-formed trie per fanout, then
// an arena with the root node's code word cut out, a table cut mid-run, an
// empty trie and junk; then tries that share blocks — the fanout-4 trie of
// TestTrieSerializationErrors (a leaf named twice, codes named by three
// nodes), the same with two parents naming one child-holding palette, and
// the fanout-256 trie of a covering whose leaves repeat.
func flatFuzzSeeds(tb testing.TB) []flatFuzzSeed {
	var seeds []flatFuzzSeed
	for _, fanout := range []int{4, 16, 64, 256} {
		sel, head, nodes, table := encodeFlatFuzz(fuzzFlat(tb, fanout))
		seeds = append(seeds, flatFuzzSeed{sel, head, nodes, table})
	}
	s := seeds[0]
	seeds = append(seeds,
		flatFuzzSeed{s.fanoutSel, s.head, append(append([]byte{}, s.nodes[:16]...), s.nodes[24:]...), s.table},
		flatFuzzSeed{s.fanoutSel, s.head, s.nodes, s.table[:len(s.table)/2]},
		flatFuzzSeed{3, []byte{}, []byte{}, []byte{}},
		flatFuzzSeed{1, []byte("junk"), []byte("junkjunkjunkjunk"), []byte("junk")})
	shared := sharingTrie(tb).Flat()
	dag := shared
	dag.Nodes = []uint64{0, 0, 0b11_10_01_00, childEntry(8, 8, 1), childEntry(8, 8, 1), childEntry(10, 8, 1), childEntry(10, 8, 1),
		0b1110, 0b101, 0, childEntry(12, 8, 1), 0, 0b10101, 0}
	for _, f := range []Flat{shared, dag, repeatedLeavesFlat(tb)} {
		sel, head, nodes, table := encodeFlatFuzz(f)
		seeds = append(seeds, flatFuzzSeed{sel, head, nodes, table})
	}
	return seeds
}

// repeatedLeavesFlat builds a fanout-256 trie over cells whose 4 × 64 leaves
// come in four kinds: many nodes name one code block, and equal leaves are
// one node.
func repeatedLeavesFlat(tb testing.TB) Flat {
	tb.Helper()
	var b supercover.Builder
	for i := range 256 {
		// Leaf i sits under slot i of the root, 4 grid levels down; its
		// slot 0 holds polygon i%4 and slot 1 polygon 4 + i%2.
		cell := cellid.FromFace(1)
		for k := 3; k >= 0; k-- {
			cell = cell.Child(i >> (2 * k) & 3)
		}
		for slot, id := range []uint32{uint32(i % 4), uint32(4 + i%2)} {
			c := cell.Child(0).Child(0).Child(0).Child(slot)
			if err := b.AddCell(c, []supercover.Ref{{PolygonID: id, Interior: true}}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	trie, err := Build(b.Build(), Config{Fanout: 256})
	if err != nil {
		tb.Fatal(err)
	}
	return trie.Flat()
}

// FuzzTrieFromFlat assembles Flat words straight from fuzz bytes — no
// checksum stands between the mutator and the validator, unlike a file —
// and demands that TrieFromFlat either rejects them or returns a trie on
// which everything a served index runs terminates inside the two slices:
// lookups on every face, the batch walk, Cells and ComputeStats. No
// reference may exceed MaxPolygonRef, which is what the enclosing index
// sizes its per-polygon outputs from.
func FuzzTrieFromFlat(f *testing.F) {
	for _, s := range flatFuzzSeeds(f) {
		f.Add(s.fanoutSel, s.head, s.nodes, s.table)
	}
	f.Fuzz(func(t *testing.T, fanoutSel uint8, head, nodes, table []byte) {
		in := decodeFlatFuzz(fanoutSel, head, nodes, table)
		trie, err := TrieFromFlat(in)
		if err != nil {
			return
		}
		maxRef, hasRefs := trie.MaxPolygonRef()
		checkID := func(id uint32) {
			if !hasRefs || id > maxRef {
				t.Fatalf("reference %d beyond MaxPolygonRef (%d, %v)", id, maxRef, hasRefs)
			}
		}
		// Probes: per face the two extreme leaves, plus leaves steered by
		// the input's own bytes so deep paths the mutator builds get walked.
		var leaves []cellid.ID
		for face := 0; face < cellid.NumFaces; face++ {
			leaves = append(leaves,
				cellid.FromFaceIJ(face, 0, 0),
				cellid.FromFaceIJ(face, cellid.MaxSize-1, cellid.MaxSize-1))
		}
		for i := 0; i+leafRecordSize <= len(nodes) && len(leaves) < 64; i += leafRecordSize {
			leaves = append(leaves, cellid.FromFaceIJ(int(nodes[i])%cellid.NumFaces,
				int(binary.LittleEndian.Uint32(nodes[i+1:]))%cellid.MaxSize,
				int(binary.LittleEndian.Uint32(nodes[i+5:]))%cellid.MaxSize))
		}
		var res, want Result
		for _, leaf := range leaves {
			res.Reset()
			if hit := trie.Lookup(leaf, &res); hit != (res.Total() > 0) {
				t.Fatalf("leaf %v: hit=%v with %d references", leaf, hit, res.Total())
			}
			for _, id := range res.True {
				checkID(id)
			}
			for _, id := range res.Candidates {
				checkID(id)
			}
		}
		trie.LookupBatch(leaves, &res, func(i int, hit bool) {
			want.Reset()
			if wantHit := trie.Lookup(leaves[i], &want); hit != wantHit || !resultEqual(&res, &want) {
				t.Fatalf("leaf %v: batch walk diverges from Lookup", leaves[i])
			}
		})
		// Cells may refuse a path deeper than the cell space; it must not
		// run away or hand out references lookups could not.
		cells := 0
		_ = trie.Cells(func(cell cellid.ID, refs []supercover.Ref) error {
			if cells++; cells > len(in.Nodes)*int(in.Fanout) {
				t.Fatalf("Cells visited more cells than the arena can have slots (%d)", len(in.Nodes)*int(in.Fanout))
			}
			for _, r := range refs {
				checkID(r.PolygonID)
			}
			return nil
		})
		st := trie.ComputeStats()
		// Every node but the sentinel hangs from a root or a child pointer.
		if st.NumNodes > cellid.NumFaces+st.ChildPointers || st.MaxDepth > st.NumNodes || st.TrieBytes != int64(8*len(in.Nodes)) {
			t.Fatalf("stats %+v for an arena of %d words", st, len(in.Nodes))
		}
		// Accepted means canonical: the flat form is a fixed point.
		if _, err := TrieFromFlat(trie.Flat()); err != nil {
			t.Fatalf("own flat form rejected: %v", err)
		}
	})
}

// batchFuzz lazily builds the deterministic cross-face trie the batch-walk
// fuzzer probes: cells at several depths on faces 0, 2, and 3 (faces 1, 4,
// 5 stay empty so the no-root fast path is reachable), all three entry
// encodings present.
var batchFuzz = struct {
	once sync.Once
	sc   *supercover.SuperCovering
	trie *Trie
}{}

func batchFuzzTrie() (*supercover.SuperCovering, *Trie) {
	batchFuzz.once.Do(func() {
		f0, f2, f3 := cellid.FromFace(0), cellid.FromFace(2), cellid.FromFace(3)
		var scb supercover.Builder
		for id, cov := range []*cover.Covering{
			{Interior: []cellid.ID{f0.Child(0).Child(1).Child(2), f2.Child(1)}, Boundary: []cellid.ID{f0.Child(3)}},
			{Interior: []cellid.ID{f3.Child(2).Child(2).Child(0).Child(1)}, Boundary: []cellid.ID{f0.Child(0).Child(1).Child(2), f2.Child(3).Child(3)}},
			{Boundary: []cellid.ID{f0.Child(0).Child(1).Child(2), f0.Child(3), f3.Child(0)}},
		} {
			if err := scb.Add(uint32(id), cov); err != nil {
				panic(err)
			}
		}
		batchFuzz.sc = scb.Build()
		trie, err := Build(batchFuzz.sc, Config{Fanout: 16})
		if err != nil {
			panic(err)
		}
		batchFuzz.trie = trie
	})
	return batchFuzz.sc, batchFuzz.trie
}

// leafRecordSize is the wire size of one fuzzed probe: face byte plus two
// 32-bit ij coordinates.
const leafRecordSize = 9

// FuzzLookupBatch decodes a probe stream and demands that the batch walk
// match scalar Lookup exactly — same emit order, hit flags, and reference
// splits — whatever the order of the probes and however often the walk
// resumes mid-path or restarts on another face.
func FuzzLookupBatch(f *testing.F) {
	sc, _ := batchFuzzTrie()
	// Seeds: every covering cell's first leaf, prefixes of that stream, the
	// empty stream, and the stream with a probe on an empty face appended.
	var stream []byte
	addLeaf := func(leaf cellid.ID) {
		face, ci, cj, _ := leaf.ToFaceIJ()
		var rec [leafRecordSize]byte
		rec[0] = byte(face)
		binary.LittleEndian.PutUint32(rec[1:], uint32(ci))
		binary.LittleEndian.PutUint32(rec[5:], uint32(cj))
		stream = append(stream, rec[:]...)
	}
	for i := 0; i < sc.NumCells(); i++ {
		addLeaf(sc.Cell(i).RangeMin())
	}
	f.Add(stream)
	f.Add(stream[:leafRecordSize*4])
	f.Add(stream[:leafRecordSize])
	f.Add([]byte{})
	addLeaf(cellid.FromFaceIJ(1, 12345, 67890))
	f.Add(stream)
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, trie := batchFuzzTrie()
		leaves := make([]cellid.ID, 0, len(raw)/leafRecordSize)
		for i := 0; i+leafRecordSize <= len(raw); i += leafRecordSize {
			face := int(raw[i]) % cellid.NumFaces
			ci := int(binary.LittleEndian.Uint32(raw[i+1:])) % cellid.MaxSize
			cj := int(binary.LittleEndian.Uint32(raw[i+5:])) % cellid.MaxSize
			leaves = append(leaves, cellid.FromFaceIJ(face, ci, cj))
		}
		var res, want Result
		calls := 0
		trie.LookupBatch(leaves, &res, func(i int, hit bool) {
			if i != calls {
				t.Fatalf("emit order broken: got %d, want %d", i, calls)
			}
			calls++
			want.Reset()
			wantHit := trie.Lookup(leaves[i], &want)
			if hit != wantHit || !resultEqual(&res, &want) {
				t.Fatalf("leaf %v: batch result diverges from Lookup", leaves[i])
			}
		})
		if calls != len(leaves) {
			t.Fatalf("%d emits for %d leaves", calls, len(leaves))
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzTrieFromFlat when ACT_WRITE_FUZZ_CORPUS=1 is set.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("ACT_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set ACT_WRITE_FUZZ_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTrieFromFlat")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range flatFuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n[]byte(%q)\n[]byte(%q)\n", rune(s.fanoutSel), s.head, s.nodes, s.table)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote corpus entries to %s", dir)
}

// FuzzRelayoutPacked builds a small covering clustered under one cell —
// cells a few random quadrant digits deep, over three polygons, so leaf
// blocks repeat and overlap — and checks the packed trie against the dense
// reference (checkAgainstReference: the flat form, the same Cells, and
// LookupBatch ≡ Lookup ≡ the reference's lookup); Relayout is idempotent,
// and TrieFromFlat refuses the trie's flat form once a leaf block is named
// at a second place its words occur.
func FuzzRelayoutPacked(f *testing.F) {
	for seed := range int64(6) {
		f.Add(seed, uint8(seed), uint8(20+10*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, fanoutSel, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		base := cellid.FromFaceIJ(int(fanoutSel>>2)%cellid.NumFaces, rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize)).Parent(8 + rng.Intn(8))
		var cells []cellid.ID
		for range int(n) {
			c := base
			for range 1 + rng.Intn(8) {
				c = c.Child(rng.Intn(4))
			}
			if !slices.ContainsFunc(cells, c.Intersects) {
				cells = append(cells, c)
			}
		}
		slices.Sort(cells)
		var b supercover.Builder
		for _, c := range cells {
			ref := supercover.Ref{PolygonID: uint32(rng.Intn(3)), Interior: rng.Intn(2) == 0}
			if err := b.AddCell(c, []supercover.Ref{ref}); err != nil {
				t.Fatal(err)
			}
		}
		sc := b.Build()
		var leaves []cellid.ID
		for range 200 {
			leaves = append(leaves, base.RangeMin()+cellid.ID(rng.Uint64()%uint64(base.RangeMax()-base.RangeMin()+1))|1)
		}
		packed := checkAgainstReference(t, sc, Config{Fanout: 4 << (2 * (fanoutSel & 3))}, leaves)
		again := *packed
		if again.Relayout(); again.roots != packed.roots || !slices.Equal(again.nodes, packed.nodes) {
			t.Fatal("the relayout is not idempotent")
		}
		if moved, ok := moveLeafBlock(packed); ok {
			if _, err := TrieFromFlat(moved); err == nil {
				t.Fatal("a leaf block named at a second occurrence of its words was accepted")
			}
		}
	})
}

// FuzzCodeWidths builds a trie whose root holds the d distinct values the
// input asks for, a few of its slots hanging children with as many distinct
// values as chance gives them, so that nodes reach every code width from 1
// to 8 bits, and those of 3, 5, 6 and 7 bits have codes that straddle a
// word boundary. Everything observable must agree with the dense reference
// (checkAgainstReference: the flat form, Cells, and LookupBatch ≡ Lookup ≡
// the reference's lookup); the root must carry the narrowest width for its
// palette; and the flat form is refused once the root names its codes
// re-coded one bit wider, or a code block that starts at word 0, where the
// sentinel's lies.
func FuzzCodeWidths(f *testing.F) {
	for i, d := range []uint16{1, 2, 3, 5, 9, 17, 33, 65, 129, 256} {
		f.Add(int64(i), uint8(3), d) // fanout 256: every width
	}
	f.Add(int64(10), uint8(2), uint16(40)) // fanout 64, 6-bit codes
	f.Add(int64(11), uint8(1), uint16(11)) // fanout 16, 4-bit codes
	f.Fuzz(func(t *testing.T, seed int64, fanoutSel uint8, dSel uint16) {
		fanout := 4 << (2 * (fanoutSel & 3))
		d := 1 + int(dSel-1)%fanout
		rng := rand.New(rand.NewSource(seed))
		level := bits.TrailingZeros(uint(fanout)) / 2 // a cell fills one slot
		// Slots 0 to d-1 hold polygons 0 to d-1; the rest hold one of them,
		// or, one in eight, hang a child whose slots hold one of up to
		// fanout polygons from d on.
		var b supercover.Builder
		add := func(cell cellid.ID, id int) {
			if err := b.AddCell(cell, []supercover.Ref{{PolygonID: uint32(id), Interior: rng.Intn(4) != 0}}); err != nil {
				t.Fatal(err)
			}
		}
		descend := func(cell cellid.ID, slot int) cellid.ID {
			for k := level - 1; k >= 0; k-- {
				cell = cell.Child(slot >> (2 * k) & 3)
			}
			return cell
		}
		for s := range fanout {
			cell := descend(cellid.FromFace(0), s)
			switch {
			case s < d:
				add(cell, s)
			case rng.Intn(8) != 0:
				add(cell, rng.Intn(d))
			default:
				values := 1 + rng.Intn(fanout)
				for c := range fanout {
					add(descend(cell, c), d+rng.Intn(values))
				}
			}
		}
		trie := checkAgainstReference(t, b.Build(), Config{Fanout: fanout}, nil)
		root := trie.roots[0]
		w, palette := widthOf(root), trie.palette(root)
		if len(palette) < d || w != codeWidth(len(palette)) {
			t.Fatalf("root of %d distinct values: %d-entry palette in %d-bit codes", d, len(palette), w)
		}
		if w < 8 {
			// The root's codes, one bit wider, after the arena.
			codes := make([]uint8, fanout)
			for i := range codes {
				codes[i] = uint8(trie.window(codeEnd(root), uint64(i)*w) & (1<<w - 1))
			}
			f := trie.Flat()
			f.Nodes = append(slices.Clone(f.Nodes), make([]uint64, codeWords(fanout, w+1))...)
			putCodes(f.Nodes[len(f.Nodes)-int(codeWords(fanout, w+1)):], codes, w+1)
			f.Roots[0] = childEntry(paletteAt(root), uint64(len(f.Nodes)), w+1)
			if _, err := TrieFromFlat(f); err == nil || !strings.Contains(err.Error(), "width not minimal") {
				t.Fatalf("root codes one bit wider refused with %v, want the narrowest width", err)
			}
		}
		f := trie.Flat()
		f.Roots[0] = childEntry(paletteAt(root), codeWords(fanout, w), w)
		if _, err := TrieFromFlat(f); err == nil || !strings.Contains(err.Error(), "outside the arena") {
			t.Fatalf("a code block at word 0 refused with %v, want it outside the arena", err)
		}
	})
}
