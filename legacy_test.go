package act

// Index files of versions 7 to 10 — the layouts before the leaf region was
// packed — still load through every path, serve what a fresh build serves,
// and write back the file the build writes (version 11 or 12).

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// legacySparseFile is an index of CensusBlocks(1, 40) on the cube-face grid
// at ε = 1000 m with polygons 5, 12 and 30 removed and compacted away,
// written as index version 8 by the last release that wrote it.
const legacySparseFile = "testdata/census40-sparse-v8.act"

// buildLegacyTwin builds the index legacySparseFile and
// testdata/census40-sparse-v10.act were written from.
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

// buildLegacyDenseTwin builds the index testdata/census40-dense-v9.act was
// written from: CubeFaceGrid census blocks as for buildLegacyTwin, nothing
// removed.
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
	checkLegacyFile(t, legacySparseFile, unsharedIndexVersionSparse, buildLegacyTwin(t))
}

// TestLegacySharedArenaLoads loads a version 9 and a version 10 file, whose
// arenas share whole blocks but pack nothing, as checkLegacyFile does; each
// was written by the last release that wrote it.
func TestLegacySharedArenaLoads(t *testing.T) {
	for _, tc := range []struct {
		file    string
		version uint32
		twin    func(*testing.T) *Index
	}{
		{"testdata/census40-dense-v9.act", sharedIndexVersion, buildLegacyDenseTwin},
		{"testdata/census40-sparse-v10.act", sharedIndexVersionSparse, buildLegacyTwin},
	} {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			checkLegacyFile(t, tc.file, tc.version, tc.twin(t))
		})
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
	if mapped.Mapped() {
		t.Errorf("a version %d arena is relaid out onto the heap, yet Mapped reports the mapping", version)
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
		if !rec.LookupExact(LatLng{Lat: lat + 0.0005, Lng: lng + 0.0015}, &res) || !slices.Contains(res.True, id) {
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
