package act

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"unsafe"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
)

// Index serialization, versions 13 and 14 — the flat, mmap-servable layout
// (little endian throughout):
//
//	offset 0:    header, 264 bytes
//	  magic     "ACTX"          4 bytes
//	  version   uint32          13 (dense ids) or 14 (sparse ids)
//	  gridKind  uint32
//	  flags     uint32          bit 0: a geometry section follows the table
//	  fanout    uint32
//	  idSpace   uint32          sparse: ids ever assigned; dense: zero padding
//	  precision, achieved       2 × float64
//	  cells     uint64          indexed covering cells (stats)
//	  numPolys  uint64          live (stored) polygon count
//	  numNodes  uint64          trie nodes walks reach, sentinel included
//	  tableLen  uint64          lookup-table words (uint32 each)
//	  arenaOff  uint64          = flatPageSize (4096): arena start
//	  tableOff  uint64          = arenaOff + arena words·8; the arena's size
//	                            is read from here, nodes vary in size
//	  geomOff   uint64          8-aligned geometry start; 0 without geometry
//	  fileSize  uint64          total file length in bytes
//	  roots     6 × uint64      per-face root child entries, 0 for an
//	                            empty face
//	  skips     6 × uint64      root path-compression bit counts
//	  prefixes  6 × uint64      root path-compression prefixes
//	  arenaCRC  uint64          CRC-64/ECMA of arena + table (+ id column)
//	  headerCRC uint64          CRC-64/ECMA of header bytes [0, 256)
//	zero padding to arenaOff
//	arenaOff:  node arena       palette-coded nodes' code blocks and
//	                            palettes (see internal/core): roots and
//	                            nodes with children breadth-first, then
//	                            the leaves' distinct blocks as one word
//	                            superstring
//	tableOff:  lookup table     tableLen × uint32
//	idsOff:    id column        sparse only: numPolys × uint32, strictly
//	                            ascending live polygon ids, 8-aligned after
//	                            the table ((tableEnd+7)&^7)
//	geomOff:   geometry section geostore.Store.Encode blob (own magic,
//	                            version 3, CRC; see internal/geostore)
//	                            filling [geomOff, fileSize) exactly — present
//	                            only when flag set
//
// A child entry — a face root, or a palette entry naming a child node —
// holds the entry tag 0 in bits 0–1, the node's code width w−1 (w = 1 to 8
// bits, the narrowest that numbers its palette) in bits 2–4, its palette
// offset in bits 5–33, and in bits 34–63 the signed distance from the
// palette to the word past its code block, where slot i's code sits at bit
// i·w counted from the block's last word down.
//
// Version 13 describes a dense id space: numPolys polygons with implicit
// ids 0..numPolys-1. Version 14 adds sparse id spaces — the id column names
// the live ids explicitly, idSpace records how many ids were ever assigned
// — so a compacted index whose removals left permanent holes serializes.
// WriteTo picks the lowest version that can represent the index (v13 when
// dense, v14 when sparse); the geometry section stays dense either way,
// storing the live polygons in id-column order and remapped to their
// sparse ids at load. The arenaCRC of a sparse file also covers the id
// column (not the alignment padding around it).
//
// The arena starts on a page boundary and its words are stored exactly as
// the trie serves them in memory, so OpenIndex can map the file and alias
// the arena and table in place — no deserialize copy, the page cache is the
// index. Every load ends in one decoder, decodeImage. Heap images (ReadIndex,
// and OpenIndex where it cannot map) have arenaCRC verified; the mapping
// skips it (one full-arena pass would defeat lazy paging) and relies on the
// same structural validation that guards every decoded trie, which already
// makes even a forged file unable to drive lookups out of bounds.
//
// The geometry section is versioned and checksummed independently of the
// header; WriteTo writes, and the decoder reads, section version 3 alone.
// Files written with WithGeometryStore(false) load in approximate-only mode.
//
// Only versions 13 and 14 are read. Every other version is refused before
// a further byte is interpreted: 1 to 6 (earlier layouts), 7 to 12 (this
// layout over earlier trie encodings, with geometry sections of versions 1
// to 3) and anything newer. A version 7 to 12 file is upgraded by loading it
// with a release that still reads it and writing it back (WriteTo, or a
// checkpoint), which rebuilds its trie.

const (
	indexMagic = "ACTX"
	// indexVersion is the dense flat format; indexVersionSparse the flat
	// format with an explicit id column. WriteTo emits the lowest version
	// that represents the index; no other version is read.
	indexVersion       = 13
	indexVersionSparse = 14

	// flatHeaderSize is the full flat header including headerCRC;
	// flatHeaderCRCBytes the prefix that checksum covers.
	flatHeaderSize     = 264
	flatHeaderCRCBytes = 256
	// flatPageSize aligns the arena to a page for mmap serving; the decoder
	// itself needs only the 8-byte alignment that follows from it.
	flatPageSize = 4096
)

// byteCounter counts bytes flowing to the underlying writer.
type byteCounter struct {
	w io.Writer
	n int64
}

func (b *byteCounter) Write(p []byte) (int, error) {
	n, err := b.w.Write(p)
	b.n += int64(n)
	return n, err
}

// ErrPendingMutations is returned by WriteTo while the delta layer is
// non-empty. Call Compact first: a compacted index serializes normally.
var ErrPendingMutations = errors.New("act: index has uncompacted mutations; Compact before WriteTo")

var flatCRCTable = crc64.MakeTable(crc64.ECMA)

// flatHeader is the parsed 264-byte flat header (versions 13 and 14).
type flatHeader struct {
	version   uint32
	idSpace   uint64 // ids ever assigned; == numPolys when dense
	gridKind  uint32
	hasGeom   bool
	fanout    uint32
	precision float64
	achieved  float64
	cells     uint64
	numPolys  uint64
	numNodes  uint64
	tableLen  uint64
	arenaOff  uint64
	tableOff  uint64
	geomOff   uint64
	fileSize  uint64
	roots     [cellid.NumFaces]uint64
	skips     [cellid.NumFaces]uint64
	prefixes  [cellid.NumFaces]uint64
	arenaCRC  uint64
}

// tableEnd returns the byte offset one past the lookup table.
func (h *flatHeader) tableEnd() uint64 { return h.tableOff + h.tableLen*4 }

// sparse reports whether the file carries an id column (version 14).
func (h *flatHeader) sparse() bool { return h.version == indexVersionSparse }

// idsOff returns the byte offset of the sparse id column (8-aligned past the
// table). A dense header has no column; idsOff and idsEnd collapse to
// tableEnd so size arithmetic works uniformly across versions.
func (h *flatHeader) idsOff() uint64 {
	if !h.sparse() {
		return h.tableEnd()
	}
	return (h.tableEnd() + 7) &^ 7
}

// idsEnd returns the byte offset one past the id column.
func (h *flatHeader) idsEnd() uint64 {
	if !h.sparse() {
		return h.tableEnd()
	}
	return h.idsOff() + h.numPolys*4
}

// encode lays the header out in its on-disk byte form, computing headerCRC.
func (h *flatHeader) encode() [flatHeaderSize]byte {
	var buf [flatHeaderSize]byte
	le := binary.LittleEndian
	copy(buf[0:], indexMagic)
	le.PutUint32(buf[4:], h.version)
	le.PutUint32(buf[8:], h.gridKind)
	var flags uint32
	if h.hasGeom {
		flags = 1
	}
	le.PutUint32(buf[12:], flags)
	le.PutUint32(buf[16:], h.fanout)
	if h.sparse() {
		le.PutUint32(buf[20:], uint32(h.idSpace))
	}
	// Dense, buf[20:24] is reserved padding, zero.
	le.PutUint64(buf[24:], math.Float64bits(h.precision))
	le.PutUint64(buf[32:], math.Float64bits(h.achieved))
	le.PutUint64(buf[40:], h.cells)
	le.PutUint64(buf[48:], h.numPolys)
	le.PutUint64(buf[56:], h.numNodes)
	le.PutUint64(buf[64:], h.tableLen)
	le.PutUint64(buf[72:], h.arenaOff)
	le.PutUint64(buf[80:], h.tableOff)
	le.PutUint64(buf[88:], h.geomOff)
	le.PutUint64(buf[96:], h.fileSize)
	for i := 0; i < cellid.NumFaces; i++ {
		le.PutUint64(buf[104+8*i:], h.roots[i])
		le.PutUint64(buf[152+8*i:], h.skips[i])
		le.PutUint64(buf[200+8*i:], h.prefixes[i])
	}
	le.PutUint64(buf[248:], h.arenaCRC)
	le.PutUint64(buf[flatHeaderCRCBytes:], crc64.Checksum(buf[:flatHeaderCRCBytes], flatCRCTable))
	return buf
}

// parseHeader parses the header at the start of a file image. Magic and
// version come first, so anything but a v13 or v14 file is refused before
// a further byte is interpreted, even one too short to hold a header.
func parseHeader(b []byte) (*flatHeader, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("act: %d bytes hold no index header", len(b))
	}
	if string(b[:4]) != indexMagic {
		return nil, fmt.Errorf("act: bad index magic %q", b[:4])
	}
	switch v := binary.LittleEndian.Uint32(b[4:]); {
	case v >= 7 && v < indexVersion:
		// Versions 7 to 12 differ from 13 and 14 only in the trie's
		// encoding, which the last release to read them rebuilt.
		return nil, fmt.Errorf("act: unsupported index version %d: load it with a release that reads index version 12 and write it back (WriteTo, or a checkpoint)", v)
	case v != indexVersion && v != indexVersionSparse:
		return nil, fmt.Errorf("act: unsupported index version %d", v)
	}
	if len(b) < flatHeaderSize {
		return nil, fmt.Errorf("act: header truncated at %d of %d bytes", len(b), flatHeaderSize)
	}
	return decodeFlatHeader((*[flatHeaderSize]byte)(b))
}

// decodeFlatHeader parses and cross-validates a flat header (v13 or v14)
// whose magic and version bytes are already verified. Every offset
// relationship the layout promises is checked here, so the decoder can
// trust the header's geometry of the file afterwards — all that remains is
// checking it against the image's length.
func decodeFlatHeader(buf *[flatHeaderSize]byte) (*flatHeader, error) {
	le := binary.LittleEndian
	if got, want := le.Uint64(buf[flatHeaderCRCBytes:]), crc64.Checksum(buf[:flatHeaderCRCBytes], flatCRCTable); got != want {
		return nil, fmt.Errorf("act: header checksum mismatch: file %016x, computed %016x", got, want)
	}
	h := &flatHeader{
		version:   le.Uint32(buf[4:]),
		gridKind:  le.Uint32(buf[8:]),
		hasGeom:   le.Uint32(buf[12:])&1 == 1,
		fanout:    le.Uint32(buf[16:]),
		precision: math.Float64frombits(le.Uint64(buf[24:])),
		achieved:  math.Float64frombits(le.Uint64(buf[32:])),
		cells:     le.Uint64(buf[40:]),
		numPolys:  le.Uint64(buf[48:]),
		numNodes:  le.Uint64(buf[56:]),
		tableLen:  le.Uint64(buf[64:]),
		arenaOff:  le.Uint64(buf[72:]),
		tableOff:  le.Uint64(buf[80:]),
		geomOff:   le.Uint64(buf[88:]),
		fileSize:  le.Uint64(buf[96:]),
		arenaCRC:  le.Uint64(buf[248:]),
	}
	if flags := le.Uint32(buf[12:]); flags > 1 {
		return nil, fmt.Errorf("act: unknown header flags %#x", flags)
	}
	// The precision rebuilds the coverer of a mutable index; the achieved
	// precision is only reported, and files written by earlier versions may
	// hold one above ε.
	if !(h.precision > 0) || math.IsInf(h.precision, 1) {
		return nil, fmt.Errorf("act: header precision %v is not positive and finite", h.precision)
	}
	if !(h.achieved >= 0) || math.IsInf(h.achieved, 1) {
		return nil, fmt.Errorf("act: header achieved precision %v is not finite and non-negative", h.achieved)
	}
	for i := 0; i < cellid.NumFaces; i++ {
		h.roots[i] = le.Uint64(buf[104+8*i:])
		h.skips[i] = le.Uint64(buf[152+8*i:])
		h.prefixes[i] = le.Uint64(buf[200+8*i:])
	}
	switch h.fanout {
	case 4, 16, 64, 256:
	default:
		return nil, fmt.Errorf("act: bad trie fanout %d", h.fanout)
	}
	if h.tableLen > core.MaxTableWords {
		return nil, fmt.Errorf("act: implausible lookup table of %d words", h.tableLen)
	}
	if h.numPolys > 1<<30 {
		// Polygon ids are 30-bit (the trie payload format), so any larger
		// count is corruption — and would otherwise size Join's per-polygon
		// count slices.
		return nil, fmt.Errorf("act: implausible polygon count %d", h.numPolys)
	}
	switch {
	case h.version != indexVersion && h.version != indexVersionSparse:
		return nil, fmt.Errorf("act: unsupported flat index version %d", h.version)
	case !h.sparse():
		// Dense: the id space is the polygon count, ids implicit.
		h.idSpace = h.numPolys
	default:
		h.idSpace = uint64(le.Uint32(buf[20:]))
		if h.idSpace > 1<<30 {
			return nil, fmt.Errorf("act: implausible id space %d", h.idSpace)
		}
		if h.numPolys > h.idSpace {
			return nil, fmt.Errorf("act: %d live polygons exceed id space %d", h.numPolys, h.idSpace)
		}
	}
	if h.arenaOff != flatPageSize {
		return nil, fmt.Errorf("act: arena offset %d is not the page boundary %d", h.arenaOff, flatPageSize)
	}
	// Nodes vary in size, so the arena is as long as the offsets say;
	// assembleFlat checks numNodes against what the arena holds.
	if h.tableOff < h.arenaOff || (h.tableOff-h.arenaOff)%8 != 0 || (h.tableOff-h.arenaOff)/8 > core.MaxArenaWords {
		return nil, fmt.Errorf("act: table offset %d does not end a plausible arena", h.tableOff)
	}
	end := h.idsEnd()
	if h.hasGeom {
		if h.geomOff != (end+7)&^7 || h.fileSize <= h.geomOff {
			return nil, fmt.Errorf("act: geometry offset %d inconsistent with table end %d", h.geomOff, end)
		}
	} else if h.geomOff != 0 || h.fileSize != end {
		return nil, fmt.Errorf("act: file size %d inconsistent with table end %d", h.fileSize, end)
	}
	return h, nil
}

// writeZeros writes n zero bytes — the padding between sections.
func writeZeros(w io.Writer, n int64) error {
	var zeros [4096]byte
	for n > 0 {
		c := n
		if c > int64(len(zeros)) {
			c = int64(len(zeros))
		}
		if _, err := w.Write(zeros[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// WriteTo serializes the index in the flat layout, loadable with
// ReadIndex from any stream and servable zero-copy with OpenIndex from a
// file. It implements io.WriterTo. The byte stream is a pure function of
// the index state: serialize → ReadIndex → serialize round-trips
// bit-exactly.
//
// Only compacted indexes serialize: WriteTo reports ErrPendingMutations
// while uncompacted mutations exist. A dense index (no removals, or none
// that left holes) writes the v13 format; an index whose removals left
// permanent holes in the id space (ids are stable forever, so holes never
// close) writes v14, which carries an explicit id column.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ep := ix.live.Load()
	if ep.ov != nil {
		return 0, ErrPendingMutations
	}
	return ix.writeFlat(w, ep)
}

// writeFlat serializes one compacted epoch in the flat layout: v13 while its
// id space is dense, v14 otherwise — with the strictly ascending column of
// live polygon ids and the number of ids ever assigned. The v14 geometry
// section stays a dense geostore blob holding the live polygons in
// id-column order; the loader remaps them to their sparse ids.
func (ix *Index) writeFlat(w io.Writer, ep *epoch) (int64, error) {
	// The grid kind is carried on the Index since build (or load) time;
	// persist it directly instead of reverse-inferring it from the grid's
	// name string.
	if ix.kind != PlanarGrid && ix.kind != CubeFaceGrid {
		return 0, fmt.Errorf("act: cannot serialize unknown grid kind %v", ix.kind)
	}
	f := ep.trie.Flat()
	arenaWords := uint64(len(f.Nodes))
	h := flatHeader{
		version:   indexVersion,
		gridKind:  uint32(ix.kind),
		hasGeom:   ep.store != nil,
		fanout:    f.Fanout,
		precision: ix.PrecisionMeters(),
		achieved:  ep.stats.AchievedPrecisionMeters,
		cells:     uint64(ep.stats.IndexedCells),
		numPolys:  uint64(ep.stats.NumPolygons),
		numNodes:  uint64(ep.stats.TrieNodes) + 1,
		tableLen:  uint64(len(f.Table)),
		arenaOff:  flatPageSize,
		roots:     f.Roots,
		skips:     f.Skips,
		prefixes:  f.Prefixes,
		// One extra memory-speed pass over the arena, paid at save time so
		// heap loads can verify the arena.
		arenaCRC: f.SectionCRC(),
	}
	h.tableOff = h.arenaOff + arenaWords*8
	var idBytes []byte
	ids := ep.idColumn()
	if ids != nil {
		h.version = indexVersionSparse
		h.idSpace = uint64(len(ep.alive))
		h.numPolys = uint64(len(ids))
		idBytes = make([]byte, 4*len(ids))
		for i, id := range ids {
			binary.LittleEndian.PutUint32(idBytes[4*i:], id)
		}
		// The arena checksum of a sparse file also covers the id column
		// (not the alignment padding around it).
		h.arenaCRC = crc64.Update(h.arenaCRC, flatCRCTable, idBytes)
	}
	h.fileSize = h.idsEnd()
	var geomSec []byte
	if h.hasGeom {
		// The section holds the live polygons densely, in id-column order.
		var err error
		if geomSec, err = ep.store.Encode(ids); err != nil {
			return 0, fmt.Errorf("act: encoding geometry: %w", err)
		}
		h.geomOff = (h.fileSize + 7) &^ 7
		h.fileSize = h.geomOff + uint64(len(geomSec))
	}
	bc := &byteCounter{w: w}
	bw := bufio.NewWriterSize(bc, 1<<20)
	buf := h.encode()
	if _, err := bw.Write(buf[:]); err != nil {
		return bc.n, err
	}
	if err := writeZeros(bw, int64(h.arenaOff)-flatHeaderSize); err != nil {
		return bc.n, err
	}
	if err := f.WriteSection(bw); err != nil {
		return bc.n, err
	}
	if idBytes != nil {
		if err := writeZeros(bw, int64(h.idsOff()-h.tableEnd())); err != nil {
			return bc.n, err
		}
		if _, err := bw.Write(idBytes); err != nil {
			return bc.n, err
		}
	}
	if h.hasGeom {
		if err := writeZeros(bw, int64(h.geomOff-h.idsEnd())); err != nil {
			return bc.n, err
		}
		if _, err := bw.Write(geomSec); err != nil {
			return bc.n, err
		}
	}
	err := bw.Flush()
	return bc.n, err
}

// ReadIndex loads an index serialized with WriteTo from any stream onto the
// heap: it reads exactly the bytes the header declares and decodes them as
// OpenIndex decodes a mapping, verifying the arena checksum besides. Files
// without a geometry section load in approximate-only mode (Status().HasGeometry
// is false and exact joins report ErrNoGeometry).
func ReadIndex(r io.Reader) (*Index, error) {
	img, geom, err := readImage(r)
	if err != nil {
		return nil, err
	}
	return decodeImage(img, geom, true)
}

// readImage reads one file image off r onto the heap: the header, then the
// rest of the fileSize bytes it declares, and not one more. The geometry
// section lands in a buffer of its own, so that a trie aliasing img does not
// keep the section's bytes alive once they are decoded.
func readImage(r io.Reader) (img, geom []byte, err error) {
	img, err = readBytes(r, nil, flatHeaderSize)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, nil, fmt.Errorf("act: read index header: %w", err)
	}
	// A short header still shows its magic and version.
	h, err := parseHeader(img)
	if err != nil {
		return nil, nil, err
	}
	end := h.fileSize
	if h.hasGeom {
		end = h.geomOff
	}
	if img, err = readBytes(r, img, end); err == nil && h.hasGeom {
		geom, err = readBytes(r, nil, h.fileSize-h.geomOff)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("act: read index file: %w", err)
	}
	return img, geom, nil
}

// readBytes reads off r until buf holds n bytes, returning what arrived on
// error. The buffer doubles only as bytes arrive, so a forged length fails
// at EOF rather than allocating what it claims, and ends at exactly n.
func readBytes(r io.Reader, buf []byte, n uint64) ([]byte, error) {
	for uint64(len(buf)) < n {
		grown := make([]byte, min(n, uint64(max(2*len(buf), 1<<16))))
		m, err := io.ReadFull(r, grown[copy(grown, buf):])
		if buf = grown[:len(buf)+m]; err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// hostLittleEndian reports whether this machine stores words in the file's
// byte order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeImage is the one decoder of an index file image. img holds the file
// from its first byte, all of it when mapped; readImage hands the geometry
// section over apart, in geom. The arena and table alias img when the host
// is little-endian and img 8-aligned, and are decoded into fresh slices
// otherwise: no other reader knows the file's byte order. checkCRC, the
// policy for heap images, verifies the arena checksum; a mapping relies on
// TrieFromFlat's structural validation instead.
func decodeImage(img, geom []byte, checkCRC bool) (*Index, error) {
	h, err := parseHeader(img)
	if err != nil {
		return nil, err
	}
	// A short mapping would fault on its first missing page, and trailing
	// bytes mean the file is not what WriteTo produced.
	if size := uint64(len(img) + len(geom)); size != h.fileSize {
		return nil, fmt.Errorf("act: file is %d bytes, header says %d", size, h.fileSize)
	}
	if h.hasGeom && geom == nil {
		img, geom = img[:h.geomOff], img[h.geomOff:]
	}
	idBytes := img[h.idsOff():h.idsEnd()] // empty when dense
	if checkCRC {
		// A sparse file's arena checksum also covers the id column.
		crc := crc64.Update(crc64.Checksum(img[h.arenaOff:h.tableEnd()], flatCRCTable), flatCRCTable, idBytes)
		if crc != h.arenaCRC {
			return nil, fmt.Errorf("act: arena checksum mismatch: file %016x, computed %016x", h.arenaCRC, crc)
		}
	}
	var ids []uint32
	if h.sparse() {
		if ids, err = decodeIDColumn(idBytes, h.idSpace); err != nil {
			return nil, err
		}
	}
	alias := hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(img)))%8 == 0
	nodes := words[uint64](img[h.arenaOff:h.tableOff], alias)
	return assembleFlat(h, nodes, words[uint32](img[h.tableOff:h.tableEnd()], alias), ids, geom)
}

// words returns the little-endian words b holds: aliasing b, or decoded
// into a fresh slice.
func words[W uint32 | uint64](b []byte, alias bool) []W {
	size := int(unsafe.Sizeof(W(0)))
	if alias && len(b) >= size {
		return unsafe.Slice((*W)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	w := make([]W, len(b)/size)
	for i := range w {
		for k := size - 1; k >= 0; k-- {
			w[i] = w[i]<<8 | W(b[size*i+k])
		}
	}
	return w
}

// readGeometry decodes the geometry section of a flat file and lays it out
// by polygon id. The section stores the live polygons densely, in id-column
// order when sparse; each is remapped to its id so trie refs index the store
// directly.
func readGeometry(h *flatHeader, ids []uint32, sec []byte) (*geostore.Store, error) {
	st, err := geostore.Read(sec)
	if err != nil {
		return nil, err
	}
	if st.NumPolygons() != int(h.numPolys) {
		return nil, fmt.Errorf("act: geometry section has %d polygons, header says %d",
			st.NumPolygons(), h.numPolys)
	}
	slots := make([]*geom.Polygon, h.idSpace)
	faces := make([]uint8, h.idSpace)
	for i := range st.NumPolygons() {
		id := uint32(i)
		if ids != nil {
			id = ids[i]
		}
		face, _ := st.Face(uint32(i))
		slots[id], faces[id] = st.Polygon(uint32(i)), uint8(face)
	}
	return geostore.NewSparse(slots, faces), nil
}

// decodeIDColumn parses and validates a sparse id column: strictly ascending
// polygon ids below idSpace.
func decodeIDColumn(b []byte, idSpace uint64) ([]uint32, error) {
	ids := words[uint32](b, false)
	for i, id := range ids {
		if uint64(id) >= idSpace {
			return nil, fmt.Errorf("act: id column entry %d: id %d outside id space %d", i, id, idSpace)
		}
		if i > 0 && id <= ids[i-1] {
			return nil, fmt.Errorf("act: id column not strictly ascending at entry %d", i)
		}
	}
	return ids, nil
}

// assembleFlat builds a servable Index from a validated flat header and the
// sections decodeImage took from a file image: the trie words, aliasing the
// image or decoded from it; ids, the decoded sparse id column (nil when
// dense); and geomSec, the bytes [geomOff, fileSize) when the header declares a
// geometry section. The cross-section consistency checks (trie structure,
// polygon-id ranges, geometry count) live here. The epoch keeps the header's
// statistics, the geometry laid out by polygon id, and the live-id set: the
// id column, or every id when dense.
func assembleFlat(h *flatHeader, nodes []uint64, table []uint32, ids []uint32, geomSec []byte) (*Index, error) {
	trie, err := core.TrieFromFlat(core.Flat{
		Fanout:   h.fanout,
		Roots:    h.roots,
		Skips:    h.skips,
		Prefixes: h.prefixes,
		Nodes:    nodes,
		Table:    table,
	})
	if err != nil {
		return nil, err
	}
	pl, err := newPipeline(GridKind(h.gridKind), h.precision, int(h.fanout), h.hasGeom)
	if err != nil {
		return nil, err
	}
	ep := &epoch{trie: trie, live: int(h.numPolys), stats: BuildStats{
		NumPolygons:             int(h.numPolys),
		IndexedCells:            int(h.cells),
		AchievedPrecisionMeters: h.achieved,
	}}
	if h.hasGeom {
		if ep.store, err = readGeometry(h, ids, geomSec); err != nil {
			return nil, err
		}
	}
	if ids == nil {
		ep.alive = denseAlive(int(h.idSpace))
	} else {
		ep.alive = make([]bool, h.idSpace)
		for _, id := range ids {
			ep.alive[id] = true
		}
	}
	// Lookups return polygon ids straight out of the trie, and Join sizes
	// its per-polygon count slices from the id space — an id at or beyond
	// it would make counts[polygon]++ panic later, so reject the mismatch
	// at load time. (When dense, idSpace == numPolys.)
	maxRef, hasRefs := trie.MaxPolygonRef()
	if hasRefs && uint64(maxRef) >= h.idSpace {
		return nil, fmt.Errorf("act: trie references polygon %d, header id space is %d", maxRef, h.idSpace)
	}
	// Approximate-only files have no geometry section to cross-check the
	// header count against. Honest builds give every live polygon at least
	// one covering cell, so a live count beyond the maximum distinct-reference
	// count (maxRef+1) is corruption, not data.
	if !h.hasGeom && h.numPolys > 0 && (!hasRefs || h.numPolys > uint64(maxRef)+1) {
		return nil, fmt.Errorf("act: header claims %d polygons but the trie references at most %d", h.numPolys, maxRef)
	}
	reached, trieBytes, tableBytes := trie.Size()
	if uint64(reached)+1 != h.numNodes {
		return nil, fmt.Errorf("act: arena holds %d nodes, header says %d", reached+1, h.numNodes)
	}
	ep.stats.TrieNodes, ep.stats.TrieBytes, ep.stats.TableBytes = reached, trieBytes, tableBytes
	// A deserialized index is read-only by role (Insert/Remove/Compact
	// report ErrImmutable); Recover and OpenFollower give it another.
	return newIndex(GridKind(h.gridKind), pl, ep), nil
}
