package act

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"math"
	"math/bits"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/supercover"
)

// TestBuildGolden pins what the build pipeline produces, byte for byte: the
// trie arena, the lookup table and the geometry section of the serialized
// index, for census-400 and the two maps the repository benchmark builds
// (census-4000, recorded before the build became one descent, and the
// neighbourhoods), at its ε. The
// table hashes were recorded on the commit before the merge became a radix
// sort and a forward pass and the coverer stopped measuring every cell. The
// arena hashes were re-recorded when every node came to be coded at the
// narrowest width its palette needs (377 368 and 330 136 bytes, from 405 064 and
// 351 992 at widths of 1, 2, 4 or 8 bits). unshared pins the hashes of the
// arenas of index versions 7 and 8 (705 712 and 623 256 bytes), which the
// trie, coded at those widths and laid out that way again, must still
// reproduce — sharing, packing and the exact widths changed no node's
// palette or codes. They were recorded when nodes became palette-coded (from
// 1 802 872 and 1 620 136 run-compressed bytes), and they equal the hashes
// of the run-compressed arenas palette-coded node by node. The geometry hashes
// were re-recorded when the section became version 3 (each shared vertex
// stored once: 133 356 and 117 276 bytes, from 220 347 and 189 742 in
// version 2 and 498 072 and 427 536 in version 1); v2 and v1 pin the hashes
// the earlier versions had, which the decoded store, laid out in their
// layouts again, must still reproduce — no coding changed a bit of any
// coordinate or face. An optimization of the build leaves all of them alone,
// a change of what is built re-records them and says why.
func TestBuildGolden(t *testing.T) {
	const eps = 60
	cases := []struct {
		name                                  string
		set                                   func() (*data.PolygonSet, error)
		arena, unshared, table, store, v2, v1 string
		// achieved is the largest boundary-cell diagonal, measured cell by
		// cell.
		achieved float64
	}{
		{
			name:     "census-400",
			set:      func() (*data.PolygonSet, error) { return data.CensusBlocks(1, 400) },
			arena:    "c98df97861c2dad49b8ef6306ebd66f3ac713022005be9a8bef242e8105c2d1f",
			unshared: "93cd78fc26f3f3e6b83f72dbc89812a69caa5c8ac91678928f87ad4d077077e9",
			table:    "8d158e1f09fa3b471b3b04ccaa560cde29b3e1e754c68399bbf62e20e58f7925",
			store:    "edd314e1b5eee602be5ebfd2a069fa58f5bd075364adf1030b7a0a7e878cd128",
			v2:       "a9a486a0f9947e7bc96bb413630bc0de61032742863ab9e4a6e5bce199897220",
			v1:       "452071859a1bdb32e7ce3cecc6ffffdd844f319298bcd3d2d70a2404db65f007",
			achieved: 34.746043777255004,
		},
		{
			name:     "census-4000",
			set:      func() (*data.PolygonSet, error) { return data.CensusBlocks(1, 4000) },
			arena:    "82e9e72cb2f5dadb1f981170ebcb86c691686d0a7ed5dcacf52494cb930918c9",
			unshared: "e596b8d4a80782c640d814cc447f5d5cb4f97fed600b7e2474bfd417f03818fb",
			table:    "f73c79567e7f1599e9d72f50162c55a0ad4e18444677d9da3ecd5a1d577dde0a",
			store:    "e679d1488d47a848c53066b258ef60ef38001ba10cf6ede6db6fc67a667cce77",
			v2:       "a91b6123b96e02faa4fddb3e741d568e4d56b2470a71729d19a0c730682ae196",
			v1:       "3706f1fb10a2af5a2c1bcf2d88120acc59533dfdc6a451cc8d4242b61d27e79f",
			achieved: 34.746043777255004,
		},
		{
			name:     "neighborhoods",
			set:      func() (*data.PolygonSet, error) { return data.Neighborhoods(1) },
			arena:    "8da878350a4a6f2ddc25f499c9e67be5c8b8ce3f440b6705a04308040f61c827",
			unshared: "a6a3ebab174343aa58067b9e063e56ff67449bc5ae3d209c489dad56d2d4d9ea",
			table:    "08b72f8ac03077d845c8a2d8843d59a3626dc28fa12cdb57bd32eba1b96a78cb",
			store:    "e3669a1fac9436d0dfebd4b19b862d10157ae1e14f0155c5b0f2743858b9e908",
			v2:       "f36bc0da48c1db4249bb6a9268ac52503bd2c71d01d04295cf9c57ad72e1ec23",
			v1:       "085e1729dab13862dba4e39342d78e78e2b108778ccdd10c5f1182bee1fba4b4",
			achieved: 34.746043777255004,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set, err := tc.set()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := New(set.Polygons, WithPrecision(eps))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			file := buf.Bytes()
			h, err := decodeFlatHeader((*[flatHeaderSize]byte)(file))
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range []struct {
				name     string
				from, to uint64
				want     string
			}{
				{"trie arena", h.arenaOff, h.tableOff, tc.arena},
				{"lookup table", h.tableOff, h.tableEnd(), tc.table},
				{"geometry", h.geomOff, h.fileSize, tc.store},
			} {
				sum := sha256.Sum256(file[sec.from:sec.to])
				if got := hex.EncodeToString(sum[:]); got != sec.want {
					t.Errorf("%s (%d bytes): sha256 %s, want %s", sec.name, sec.to-sec.from, got, sec.want)
				}
			}
			unshared := arenaUnshared(ix.live.Load().trie.Flat())
			if sum := sha256.Sum256(unshared); hex.EncodeToString(sum[:]) != tc.unshared {
				t.Errorf("trie arena laid out without sharing (%d bytes): sha256 %x, want %s", len(unshared), sum, tc.unshared)
			}
			st, err := geostore.Read(file[h.geomOff:h.fileSize])
			if err != nil {
				t.Fatal(err)
			}
			for _, old := range []struct {
				version int
				section []byte
				want    string
			}{{2, sectionV2(st), tc.v2}, {1, sectionV1(st), tc.v1}} {
				if sum := sha256.Sum256(old.section); hex.EncodeToString(sum[:]) != old.want {
					t.Errorf("geometry laid out as version %d (%d bytes): sha256 %x, want %s", old.version, len(old.section), sum, old.want)
				}
			}
			got := ix.Status().Build.AchievedPrecisionMeters
			if got > eps || math.Abs(got-tc.achieved) > 1e-9*tc.achieved {
				t.Errorf("achieved precision %.17g m, want %.17g m within 1e-9 and at most ε = %d m", got, tc.achieved, eps)
			}
		})
	}
}

// arenaUnshared lays a trie's arena out as index versions 7 and 8 stored it
// — breadth-first, every node storing its own code block right before its
// own palette, its codes 1, 2, 4 or 8 bits wide, the narrowest of those that
// numbers its palette, and the entry naming it holding log2 of that width in
// bits 2–3 and its palette offset from bit 4 — and returns its bytes.
func arenaUnshared(f core.Flat) []byte {
	fanout := uint64(f.Fanout)
	out := make([]uint64, (fanout+63)/64+1) // the sentinel
	type placed struct{ pal, d uint64 }
	var queue []placed
	place := func(e uint64) uint64 {
		pal, w := e>>5&(1<<29-1), e>>2&7+1
		end := pal + uint64(int64(e)>>34)
		code := func(i uint64) uint64 { // slot i's code
			bit := i * w
			k, s := end-1-bit>>6, bit&63
			return (f.Nodes[k]>>s | f.Nodes[k-1]<<1<<(^s&63)) & (1<<w - 1)
		}
		lw := uint64(bits.Len64(w - 1))
		block := make([]uint64, (fanout<<lw+63)/64)
		top := uint64(0) // the largest code
		for i := range fanout {
			top = max(top, code(i))
			bit := i << lw
			block[uint64(len(block))-1-bit>>6] |= code(i) << (bit & 63)
		}
		out = append(out, block...)
		at := uint64(len(out))
		queue = append(queue, placed{at, top + 1})
		out = append(out, f.Nodes[pal:pal+top+1]...)
		return at<<4 | lw<<2
	}
	for _, root := range f.Roots {
		if root != 0 {
			place(root)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		for i := q.pal; i < q.pal+q.d; i++ {
			if e := out[i]; e != 0 && e&3 == 0 { // a child entry
				e = place(e)
				out[i] = e
			}
		}
	}
	return wordBytes(out)
}

// wordBytes returns words as little-endian bytes, as an index file stores
// them.
func wordBytes(words []uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// sectionV2 lays a store out as version 2 of the geometry section — every
// vertex delta-coded against the one before it, no repeats — which no loader
// reads any more.
func sectionV2(st *geostore.Store) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("ACTG"), 2)
	b = le.AppendUint64(b, uint64(st.NumPolygons()))
	b = le.AppendUint64(b, 0) // payload length, set below
	var px, py uint64
	for id := range uint32(st.NumPolygons()) {
		p := st.Polygon(id)
		face, _ := st.Face(id)
		b = append(b, byte(face))
		b = binary.AppendUvarint(b, uint64(1+len(p.Holes)))
		for _, ring := range append([]geom.Ring{p.Outer}, p.Holes...) {
			b = binary.AppendUvarint(b, uint64(len(ring)))
			for _, v := range ring {
				x, y := math.Float64bits(v.X), math.Float64bits(v.Y)
				b = binary.AppendVarint(b, int64(x-px))
				b = binary.AppendVarint(b, int64(y-py))
				px, py = x, y
			}
		}
	}
	le.PutUint64(b[16:], uint64(len(b)-24))
	return le.AppendUint64(b, crc64.Checksum(b, flatCRCTable))
}

// sectionV1 lays a store out as version 1 of the geometry section — uint32
// counts and raw float64 vertices — which no loader reads any more.
func sectionV1(st *geostore.Store) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("ACTG"), 1)
	b = le.AppendUint64(b, uint64(st.NumPolygons()))
	for id := range uint32(st.NumPolygons()) {
		p := st.Polygon(id)
		b = le.AppendUint32(b, uint32(1+len(p.Holes)))
		for _, ring := range append([]geom.Ring{p.Outer}, p.Holes...) {
			b = le.AppendUint32(b, uint32(len(ring)))
			for _, v := range ring {
				b = le.AppendUint64(b, math.Float64bits(v.X))
				b = le.AppendUint64(b, math.Float64bits(v.Y))
			}
		}
	}
	return le.AppendUint64(b, crc64.Checksum(b, flatCRCTable))
}

// TestSerializedFormIsFixedPoint: a file is a pure function of the index it
// came from, whichever loader read it — serialize → ReadIndex → serialize
// and serialize → OpenIndex → serialize both reproduce the file byte for
// byte, for a dense-id file and for a sparse-id one. It is what the arena
// validator's canonical-form rules (breadth-first order, one coding per
// node) buy.
func TestSerializedFormIsFixedPoint(t *testing.T) {
	dense, _ := buildTestIndex(t, PlanarGrid)
	sparse, _, _ := buildSparseIndex(t)
	for name, ix := range map[string]*Index{"dense-ids": dense, "sparse-ids": sparse} {
		var file bytes.Buffer
		if _, err := ix.WriteTo(&file); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantVersion := uint32(indexVersion)
		if name == "sparse-ids" {
			wantVersion = indexVersionSparse
		}
		if v := binary.LittleEndian.Uint32(file.Bytes()[4:]); v != wantVersion {
			t.Fatalf("%s: written as version %d, want %d", name, v, wantVersion)
		}
		read, err := ReadIndex(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadIndex: %v", name, err)
		}
		mapped := openMapped(t, writeIndexFile(t, ix))
		defer mapped.Close()
		for loader, loaded := range map[string]*Index{"ReadIndex": read, "OpenIndex": mapped} {
			var again bytes.Buffer
			if _, err := loaded.WriteTo(&again); err != nil {
				t.Fatalf("%s via %s: %v", name, loader, err)
			}
			if !bytes.Equal(file.Bytes(), again.Bytes()) {
				t.Errorf("%s via %s: re-serialized file differs (%d vs %d bytes)", name, loader, again.Len(), file.Len())
			}
		}
	}
}

// TestFinePrecisionTrieStaysSmall builds the benchmark's census map at the
// finest precision the paper measures. A node stores each distinct entry
// once, however many slots select it, and the 364 547 nodes use only 11 643
// distinct code blocks, each stored once, so the trie follows the covering:
// 7 037 536 bytes here (6.7 MiB; 31 052 824 with a code block per node,
// 37.5 MB with one entry per run of equal slots), where one 2 KB array per
// node made every ε from 31 m down to 15 m cost 747 MB.
func TestFinePrecisionTrieStaysSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4000-block index at ε = 15 m")
	}
	set, err := data.CensusBlocks(1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(set.Polygons, WithPrecision(15), WithGeometryStore(false))
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Status().Build; st.TrieBytes > 10<<20 {
		t.Errorf("trie of %d nodes takes %d bytes at ε = 15 m, want at most 10 MiB", st.TrieNodes, st.TrieBytes)
	}
}

// TestCellsAscendingDisjoint: Trie.Cells hands compaction the base covering
// in ascending id order, every cell starting past the previous one's
// RangeMax, on both grids and at every fanout — what lets compaction take
// the base cells as they come instead of sorting them.
func TestCellsAscendingDisjoint(t *testing.T) {
	for _, m := range []struct {
		name string
		set  func() (*data.PolygonSet, error)
	}{
		{"census-400", func() (*data.PolygonSet, error) { return data.CensusBlocks(1, 400) }},
		{"neighborhoods", func() (*data.PolygonSet, error) { return data.Neighborhoods(1) }},
	} {
		set, err := m.set()
		if err != nil {
			t.Fatal(err)
		}
		for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
			for _, fanout := range []int{4, 16, 64, 256} {
				ix, err := New(set.Polygons, WithPrecision(60), WithGrid(gk), WithFanout(fanout), WithGeometryStore(false))
				if err != nil {
					t.Fatal(err)
				}
				n, end := 0, cellid.ID(0)
				err = ix.live.Load().trie.Cells(func(cell cellid.ID, _ []supercover.Ref) error {
					if n > 0 && cell.RangeMin() <= end {
						return fmt.Errorf("cell %d, %v, starts at or before %v, where cell %d ends", n, cell, end, n-1)
					}
					n, end = n+1, cell.RangeMax()
					return nil
				})
				if err != nil || n == 0 || n > ix.Status().Build.IndexedCells {
					t.Errorf("%s/%v/fanout-%d: %d of %d cells in order: %v", m.name, gk, fanout, n, ix.Status().Build.IndexedCells, err)
				}
			}
		}
	}
}

// TestCompactGolden pins what a compaction produces, byte for byte: the
// serialized index after Compact, for census-3920 at ε = 60 m with 64
// polygons of a second census draw inserted (every fifth, from its first), on both grids at every fanout.
// Three schedules fold different deltas into the base: the inserts alone;
// the inserts with every 37th base id removed; and those with every third
// insert removed again before the compaction, so removed base references,
// a delta whose own polygons are gone and base cells the delta splits all
// pass through the merge. The hashes were recorded on the commit before
// compaction streamed the base trie's cells into the merge instead of
// sorting them with the delta's: a change of how a compaction merges leaves
// them alone.
func TestCompactGolden(t *testing.T) {
	base, err := data.CensusBlocks(1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	more, err := data.CensusBlocks(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	var inserts []*Polygon
	for i := 0; i < len(more.Polygons) && len(inserts) < 64; i += 5 {
		inserts = append(inserts, more.Polygons[i])
	}
	if len(base.Polygons) != 3920 || len(inserts) != 64 {
		t.Fatalf("%d base polygons and %d inserts, want 3920 and 64", len(base.Polygons), len(inserts))
	}
	want := map[string]string{
		"planar/fanout-4/inserts":     "1b704edc8644e61f280697ee9c767a98665bd5ce267411cbbd0ca069460008fc",
		"planar/fanout-4/removes":     "875a8349d5b164953c6fe8a10e873839bf99b927dfedc46ec2b92f286093b894",
		"planar/fanout-4/churn":       "6b56871862a269c685491d940b3ef03d1839910c5b50ad933ddc09b62702b9f1",
		"planar/fanout-16/inserts":    "c23ea2b6c36b6f7aa3971ec0f82555ec75d587e27ce967ecdf2b794a3000520a",
		"planar/fanout-16/removes":    "99709f2ea0c957ebd8fd1f6f9c2c457d50b251f39fcfda676c22f56d2592e2aa",
		"planar/fanout-16/churn":      "27925ce8d9db5f146b73196da55022a8b76ca648285bb17c811d42bba36ec661",
		"planar/fanout-64/inserts":    "172739f3c57f90877bb41f71f53c9e5273a610e89525b26b1bb914112da0cbc1",
		"planar/fanout-64/removes":    "e57da2bb3320364d973a230a5179739360cb2a43838c2f1400cc2a0b9f0ef6f6",
		"planar/fanout-64/churn":      "e27afbde484c1746311409f8a1419a7d5ec952f05ded1adedf1196fe6d93e890",
		"planar/fanout-256/inserts":   "8b58bc528eb81d07bbefd1fe8b2b7f0df3ae1bc8f6fb554b3f30e9570fc7414e",
		"planar/fanout-256/removes":   "0188ffd211eda5d660b8b0ae76b03d4422ee0d6b26cfef6674a00594693bb678",
		"planar/fanout-256/churn":     "08abad48d146a2d27796a9995493f36a08c0486e6250176ca612d6e9bfdb1c3a",
		"cubeface/fanout-4/inserts":   "9820d755e516b96d308bc2370b42bc4a6663ffce18bf3c92966a90887db10fcc",
		"cubeface/fanout-4/removes":   "a840a08604add6ee9f6aa8402af49d1e42f9f1409c372176b15cca72c11dcb27",
		"cubeface/fanout-4/churn":     "d2e18d6d1db6ab3bb78968a956f5a1cb27391406cf79cad61f2cf8fcfa47c377",
		"cubeface/fanout-16/inserts":  "f27ec4b262f599ebd8a5378a6a4391e98637fa7fad6eab07bcf4220570837403",
		"cubeface/fanout-16/removes":  "42925611821f1d4f6d90c48fe7177ea53897843740cd5bbf8f82d367bbf294d7",
		"cubeface/fanout-16/churn":    "ed4b3773da43a36fd34c71dc020a437c63344efafd01b722417528aa73bd90e9",
		"cubeface/fanout-64/inserts":  "11a8e07caf913d2eebb9415993131b62b4e096f2f9987d5e29a4a619da1abdea",
		"cubeface/fanout-64/removes":  "7ce5d855a64445101d26a7c83b7fe51fbdd0019b0221429baaf0d9b35c996f16",
		"cubeface/fanout-64/churn":    "006754d7724b5c74f5ae51657b1374c1a92daf983c2308910786620cd198777f",
		"cubeface/fanout-256/inserts": "8aed73079346e9bee64be27edd6de0d0abb496c84bc1455c63b27a30ec4e44a2",
		"cubeface/fanout-256/removes": "7e15d99e36026827533977910693cf8a5d4e5be78b31224e5e23d5a6f01f296d",
		"cubeface/fanout-256/churn":   "7e0f0521a0c72a541c404bc0973d4f9b6f4cbe5323e4eb5b7098bd80c419e8c8",
	}
	ctx := context.Background()
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		for _, fanout := range []int{4, 16, 64, 256} {
			for _, schedule := range []string{"inserts", "removes", "churn"} {
				name := fmt.Sprintf("%v/fanout-%d/%s", gk, fanout, schedule)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					ix, err := New(base.Polygons, WithPrecision(60), WithGrid(gk), WithFanout(fanout), WithDeltaThreshold(-1))
					if err != nil {
						t.Fatal(err)
					}
					var ids []uint32
					for _, p := range inserts {
						id, err := ix.Insert(ctx, p)
						if err != nil {
							t.Fatal(err)
						}
						ids = append(ids, id)
					}
					if schedule != "inserts" {
						for id := 0; id < len(base.Polygons); id += 37 {
							if err := ix.Remove(ctx, uint32(id)); err != nil {
								t.Fatal(err)
							}
						}
					}
					if schedule == "churn" {
						for i := 0; i < len(ids); i += 3 {
							if err := ix.Remove(ctx, ids[i]); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := ix.Compact(ctx); err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if _, err := ix.WriteTo(&buf); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf.Bytes())
					if got := hex.EncodeToString(sum[:]); got != want[name] {
						t.Errorf("%d bytes after Compact, sha256 %s, want %s", buf.Len(), got, want[name])
					}
				})
			}
		}
	}
}
