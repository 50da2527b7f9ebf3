package act

// Index files of versions 7 to 12 — the trie encodings before every node was
// coded at the narrowest width — still load through every path, by
// rebuilding the trie from the file's geometry, serve what a fresh build
// serves, and write back the file the build writes (version 13 or 14). One
// the trie cannot be rebuilt from — without geometry, without the faces of
// a multi-face trie, or asking for more cells than its size accounts for —
// is refused.

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// legacySparseFile is an index of CensusBlocks(1, 40) on the cube-face grid
// at ε = 1000 m with polygons 5, 12 and 30 removed and compacted away,
// written as index version 8 by the last release that wrote it.
const legacySparseFile = "testdata/census40-sparse-v8.act"

// buildLegacyTwin builds the index legacySparseFile,
// testdata/census40-sparse-v10.act and testdata/census40-sparse-v12.act
// were written from.
func buildLegacyTwin(t *testing.T) *Index {
	t.Helper()
	ix := buildLegacyDenseTwin(t)
	ctx := context.Background()
	for _, id := range []uint32{5, 12, 30} {
		if err := ix.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	return ix
}

// buildLegacyDenseTwin builds the index testdata/census40-dense-v9.act and
// testdata/census40-dense-v11.act were written from: CubeFaceGrid census
// blocks as for buildLegacyTwin, nothing removed.
func buildLegacyDenseTwin(t *testing.T) *Index {
	t.Helper()
	ix, err := New(mustCensus40(t).Polygons, WithPrecision(1000), WithGrid(CubeFaceGrid), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestLegacyUnsharedArenaLoads loads the version 8 file, whose arena shares
// no blocks, as checkLegacyFile does.
func TestLegacyUnsharedArenaLoads(t *testing.T) {
	checkLegacyFile(t, legacySparseFile, 8, buildLegacyTwin(t))
}

// TestLegacySharedArenaLoads loads a version 9 and a version 10 file, whose
// arenas share whole blocks but pack nothing, as checkLegacyFile does; each
// was written by the last release that wrote it.
func TestLegacySharedArenaLoads(t *testing.T) {
	checkLegacyFiles(t, 9, "testdata/census40-dense-v9.act", "testdata/census40-sparse-v10.act")
}

// TestLegacyPackedArenaLoads loads a version 11 and a version 12 file, whose
// arenas are packed but code nodes 1, 2, 4 or 8 bits wide, as
// checkLegacyFile does; each was written by the last release that wrote it.
func TestLegacyPackedArenaLoads(t *testing.T) {
	checkLegacyFiles(t, 11, "testdata/census40-dense-v11.act", "testdata/census40-sparse-v12.act")
}

// checkLegacyFiles runs checkLegacyFile over dense, a dense-id file of the
// odd version given, and sparse, the sparse-id file of the version after it.
func checkLegacyFiles(t *testing.T, version uint32, dense, sparse string) {
	for _, tc := range []struct {
		file    string
		version uint32
		twin    func(*testing.T) *Index
	}{{dense, version, buildLegacyDenseTwin}, {sparse, version + 1, buildLegacyTwin}} {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			checkLegacyFile(t, tc.file, tc.version, tc.twin(t))
		})
	}
}

// TestLegacyWithoutGeometryRefused: a file of versions 7 to 12 written
// without geometry holds nothing the trie can be rebuilt from, so every
// loader refuses it, saying to rebuild it from the polygons — here a fresh
// approximate-only file, stamped version 11.
func TestLegacyWithoutGeometryRefused(t *testing.T) {
	ix, err := New(mustCensus40(t).Polygons, WithPrecision(1000), WithGeometryStore(false))
	if err != nil {
		t.Fatal(err)
	}
	file, h := legacyHeader(t, ix)
	h.version = 11
	checkRefusedEverywhere(t, restamp(file, h), "no geometry to rebuild it from: rebuild from polygons")
}

// TestLegacyV1FacesRefused: a version 7 or 8 file may carry a version 1
// geometry section, which records no faces. With roots on one face every
// polygon lies there (TestGeometryV1Compat); on the cube-face grid with
// roots on several, only the trie knew each polygon's face, and the trie is
// not read, so every loader refuses the file — here a fresh build over
// several faces with its section laid out as version 1, stamped version 7.
func TestLegacyV1FacesRefused(t *testing.T) {
	tri := func(lat, lng float64) *Polygon {
		return &Polygon{Outer: []LatLng{{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + 1}, {Lat: lat + 1, Lng: lng}}}
	}
	polys := []*Polygon{tri(10, 10), tri(10, 100), tri(70, 40), tri(-20, -100), tri(40.7, -74)}
	ix, err := New(polys, WithPrecision(20000), WithGrid(CubeFaceGrid))
	if err != nil {
		t.Fatal(err)
	}
	file, h := legacyHeader(t, ix)
	file = append(file[:h.geomOff:h.geomOff], sectionV1(ix.live.Load().store)...)
	h.version, h.fileSize = 7, uint64(len(file))
	checkRefusedEverywhere(t, restamp(file, h), "write it back with a release that reads index version 12, or rebuild from polygons")
}

// TestLegacyRebuildBounded: the precision a v7–v12 file's header names
// decides how fine rebuildTrie's coverings are, and the header CRC is no
// defence against a forged one. Stamped with 10 cm instead of 1 000 m, a
// census-40 file asks for coverings of tens of thousands of cells a
// polygon; the rebuild stops once they outgrow the cells a trie of the
// file's size holds, refusing the file in time and memory proportional to
// its size. The time is bounded against the honest rebuild of the same
// file on the same host, so the bound holds on a slow or -race runner.
// Every other loader is held to the same refusal on a file forged the same
// way from a few polygons of the map, whose smaller arena buys a
// proportionally smaller budget: refusing the census-40 file once per
// loader would cost each loader the whole timed refusal again.
func TestLegacyRebuildBounded(t *testing.T) {
	const want = "a trie of its size holds: rebuild from polygons"
	census := mustCensus40(t).Polygons
	few, err := New(census[:4], WithPrecision(1000))
	if err != nil {
		t.Fatal(err)
	}
	fewFile, fh := legacyHeader(t, few)
	fh.version, fh.precision = 11, 0.1
	checkRefusedEverywhere(t, restamp(fewFile, fh), want)

	ix, err := New(census, WithPrecision(1000))
	if err != nil {
		t.Fatal(err)
	}
	file, h := legacyHeader(t, ix)
	h.version = 11
	honestFile := restamp(slices.Clone(file), h)
	honest := time.Duration(1<<63 - 1)
	for range 3 {
		start := time.Now()
		rebuilt, err := ReadIndex(bytes.NewReader(honestFile))
		honest = min(honest, time.Since(start))
		if err != nil {
			t.Fatalf("honest v11 file: %v", err)
		}
		rebuilt.Close()
	}
	h.precision = 0.1
	file = restamp(file, h)
	budget := rebuildCellsPerWord * int(h.fanout) * int((h.tableOff-h.arenaOff)/8+h.tableLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err = ReadIndex(bytes.NewReader(file))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadIndex: error %v, want %q", err, want)
	}
	// The budget is shared by every covering worker; a kept cell costs a
	// few words (the scratch buffer, the covering, the merge's pair).
	bound := 64 * uint64(budget)
	// The refusal took 70–125 times the honest rebuild, with and without
	// -race, on a 2-vCPU host; the bound leaves about four times that.
	const maxRatio = 400
	t.Logf("refusal %v, %.0f× the honest rebuild's %v", elapsed, float64(elapsed)/float64(honest), honest)
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > bound || elapsed > maxRatio*honest {
		t.Errorf("refusing a %d-byte file with a %d-cell budget took %v (%.0f× the honest rebuild's %v, bound %d×) and allocated %d bytes (bound %d)",
			len(file), budget, elapsed, float64(elapsed)/float64(honest), honest, maxRatio, allocated, bound)
	}
}

// legacyHeader returns ix's file and its parsed header, for a test to
// restamp as an older version.
func legacyHeader(t *testing.T, ix *Index) ([]byte, *flatHeader) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), h
}

// restamp writes h, its checksum recomputed, over file's header.
func restamp(file []byte, h *flatHeader) []byte {
	buf := h.encode()
	copy(file, buf[:])
	return file
}

// checkRefusedEverywhere checks that ReadIndex, OpenIndex, Recover and
// OpenFollower each refuse file with an error containing want.
func checkRefusedEverywhere(t *testing.T, file []byte, want string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "index.act")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	for loader, load := range map[string]func() (*Index, error){
		"ReadIndex":    func() (*Index, error) { return ReadIndex(bytes.NewReader(file)) },
		"OpenIndex":    func() (*Index, error) { return OpenIndex(path) },
		"Recover":      func() (*Index, error) { return Recover(path, filepath.Join(dir, "delta.wal")) },
		"OpenFollower": func() (*Index, error) { return OpenFollower(path) },
	} {
		if ix, err := load(); err == nil || !strings.Contains(err.Error(), want) {
			if err == nil {
				ix.Close()
			}
			t.Errorf("%s: error %v, want %q", loader, err, want)
		}
	}
}

// checkLegacyFile loads an index file of an older version through
// ReadIndex, OpenIndex (mapped and through its heap source), OpenFollower
// and, as the checkpoint of a WAL directory, Recover followed by inserts and
// a checkpoint: every lookup equals the one of built, the index the file was
// written from, and every file written back is built's file, of today's
// version, byte for byte.
func checkLegacyFile(t *testing.T, file string, version uint32, built *Index) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != version {
		t.Fatalf("%s is index version %d, want %d", file, v, version)
	}
	var want bytes.Buffer
	if _, err := built.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	today := uint32(indexVersion)
	if version%2 == 0 {
		today = indexVersionSparse
	}
	if v := binary.LittleEndian.Uint32(want.Bytes()[4:]); v != today {
		t.Fatalf("the build writes index version %d, want %d", v, today)
	}
	if want.Len() >= len(raw) {
		t.Errorf("the build's file (%d bytes) is not smaller than the version %d one (%d)", want.Len(), version, len(raw))
	}

	read, err := ReadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	mapped, err := OpenIndex(file)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	defer mapped.Close()
	if mapped.Status().Mapped {
		t.Errorf("a version %d trie is rebuilt onto the heap, yet Mapped reports the mapping", version)
	}
	heap, err := openHeap(file)
	if err != nil {
		t.Fatalf("OpenIndex's heap source: %v", err)
	}
	follower, err := OpenFollower(file)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer follower.Close()
	set := mustCensus40(t)
	for loader, ix := range map[string]*Index{"ReadIndex": read, "OpenIndex": mapped, "OpenIndex heap": heap, "OpenFollower": follower} {
		checkLookupParity(t, loader, built, ix, set, true)
		var again bytes.Buffer
		if _, err := ix.WriteTo(&again); err != nil {
			t.Fatalf("%s: WriteTo: %v", loader, err)
		}
		if !bytes.Equal(again.Bytes(), want.Bytes()) {
			t.Errorf("%s: re-serialized file differs from the build's (%d vs %d bytes)", loader, again.Len(), want.Len())
		}
	}

	dir := t.TempDir()
	snap := filepath.Join(dir, "index.act")
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(snap, filepath.Join(dir, "delta.wal"), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	ctx := context.Background()
	b := set.Bound
	for i := range 3 {
		lat := b.MinLat + (b.MaxLat-b.MinLat)*float64(i+1)/4
		lng := b.MinLng + (b.MaxLng-b.MinLng)*float64(i+1)/4
		p := &Polygon{Outer: []LatLng{{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + 0.002}, {Lat: lat + 0.002, Lng: lng + 0.002}}}
		id, err := rec.Insert(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if twin, err := built.Insert(ctx, p); err != nil || twin != id {
			t.Fatalf("the build gave the insert id %d (%v), the recovered index %d", twin, err, id)
		}
		var res Result
		if !mustLookup(t, rec, LatLng{Lat: lat + 0.0005, Lng: lng + 0.0015}, Exact, &res) || !slices.Contains(res.True, id) {
			t.Fatalf("inserted polygon %d not found: %+v", id, res)
		}
	}
	if err := rec.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := built.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	checkLookupParity(t, "recovered", built, rec, set, true)
	written, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var compacted bytes.Buffer
	if _, err := built.WriteTo(&compacted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, compacted.Bytes()) {
		t.Errorf("checkpoint differs from the compacted build's file (%d vs %d bytes)", len(written), compacted.Len())
	}
}
