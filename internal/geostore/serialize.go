package geostore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"math"

	"github.com/actindex/act/internal/geom"
)

// Serialization format (little endian):
//
//	magic    "ACTG"           4 bytes
//	version  uint32           currently 1
//	numPolys uint64
//	per polygon:
//	  numRings uint32         outer ring first, then holes
//	  per ring:
//	    numVerts uint32
//	    verts    numVerts × (float64 x, float64 y)
//	crc      uint64           CRC-64/ECMA of everything above
//
// The section carries its own magic, version, and checksum so the enclosing
// index file can treat it as an opaque, independently evolvable blob: a
// reader that understands the index header but not this section's version
// can still skip refinement and serve approximate results.

const (
	storeMagic   = "ACTG"
	storeVersion = 1

	// maxPolygons matches the system's 30-bit polygon-id space (trie
	// payloads cannot reference ids beyond it), so a standalone section is
	// rejected at the same bound every other reader enforces.
	maxPolygons = 1 << 30
	maxRings    = 1 << 20
	maxVerts    = 1 << 26
)

var crcTable = crc64.MakeTable(crc64.ECMA)

type countingWriter struct {
	w   io.Writer
	n   int64
	crc hash.Hash64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc.Write(p[:n])
	return n, err
}

// WriteTo serializes the store. It implements io.WriterTo; the byte stream
// is a pure function of the ring coordinates, so serialize → Read →
// serialize round-trips bit-exactly.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w, crc: crc64.New(crcTable)}
	bw := bufio.NewWriterSize(cw, 1<<20)
	write := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	if _, err := bw.WriteString(storeMagic); err != nil {
		return cw.n, err
	}
	if err := write(uint32(storeVersion)); err != nil {
		return cw.n, err
	}
	if err := write(uint64(len(s.polys))); err != nil {
		return cw.n, err
	}
	var buf [16]byte
	for _, p := range s.polys {
		if err := write(uint32(1 + len(p.Holes))); err != nil {
			return cw.n, err
		}
		writeRing := func(ring geom.Ring) error {
			if err := write(uint32(len(ring))); err != nil {
				return err
			}
			for _, v := range ring {
				binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(v.X))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(v.Y))
				if _, err := bw.Write(buf[:]); err != nil {
					return err
				}
			}
			return nil
		}
		if err := writeRing(p.Outer); err != nil {
			return cw.n, err
		}
		for _, h := range p.Holes {
			if err := writeRing(h); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// The CRC covers everything flushed so far; it is not itself summed.
	if err := binary.Write(cw.w, binary.LittleEndian, cw.crc.Sum64()); err != nil {
		return cw.n, err
	}
	return cw.n + 8, nil
}

// SerializedSize returns the exact number of bytes WriteTo will produce.
// The format has no compression or padding, so the size is a pure function
// of the ring shapes — which lets an enclosing container (the flat index
// layout) place the section at a precomputed offset and record the total
// file size in a header written before the section itself.
func (s *Store) SerializedSize() int64 {
	n := int64(4 + 4 + 8) // magic, version, numPolys
	for _, p := range s.polys {
		n += 4 // numRings
		n += 4 + 16*int64(len(p.Outer))
		for _, h := range p.Holes {
			n += 4 + 16*int64(len(h))
		}
	}
	return n + 8 // crc
}

// hashingReader folds exactly the bytes consumed by the parser into the
// checksum, independent of any buffering below it.
type hashingReader struct {
	r   io.Reader
	crc io.Writer
}

func (h *hashingReader) Read(p []byte) (int, error) {
	n, err := h.r.Read(p)
	if n > 0 {
		h.crc.Write(p[:n])
	}
	return n, err
}

// Read deserializes a store written by WriteTo, verifying the checksum and
// rebuilding the R-tree (which is derived state, not serialized).
func Read(r io.Reader) (*Store, error) {
	crc := crc64.New(crcTable)
	// When r is already a *bufio.Reader with a buffer at least this big
	// (act.ReadIndex passes one), NewReaderSize returns it unchanged — the
	// section consumes exactly its own bytes and the enclosing stream can
	// continue after it. Keep the size in sync with act.ReadIndex.
	raw := bufio.NewReaderSize(r, 1<<20)
	hr := &hashingReader{r: raw, crc: crc}
	read := func(v any) error { return binary.Read(hr, binary.LittleEndian, v) }

	magic := make([]byte, 4)
	if _, err := io.ReadFull(hr, magic); err != nil {
		return nil, fmt.Errorf("geostore: read magic: %w", err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("geostore: bad magic %q", magic)
	}
	var version uint32
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != storeVersion {
		return nil, fmt.Errorf("geostore: unsupported version %d", version)
	}
	var numPolys uint64
	if err := read(&numPolys); err != nil {
		return nil, err
	}
	if numPolys > maxPolygons {
		return nil, fmt.Errorf("geostore: implausible polygon count %d", numPolys)
	}
	polys := make([]*geom.Polygon, 0, min(numPolys, 1<<16))
	var buf [16]byte
	for i := uint64(0); i < numPolys; i++ {
		var numRings uint32
		if err := read(&numRings); err != nil {
			return nil, fmt.Errorf("geostore: polygon %d: %w", i, err)
		}
		if numRings == 0 || numRings > maxRings {
			return nil, fmt.Errorf("geostore: polygon %d: implausible ring count %d", i, numRings)
		}
		rings := make([]geom.Ring, 0, min(uint64(numRings), 1<<10))
		for ri := uint32(0); ri < numRings; ri++ {
			var n uint32
			if err := read(&n); err != nil {
				return nil, fmt.Errorf("geostore: polygon %d ring %d: %w", i, ri, err)
			}
			if n < 3 || n > maxVerts {
				return nil, fmt.Errorf("geostore: polygon %d ring %d: implausible size %d", i, ri, n)
			}
			ring := make(geom.Ring, 0, min(uint64(n), 1<<16))
			for vi := uint32(0); vi < n; vi++ {
				if _, err := io.ReadFull(hr, buf[:]); err != nil {
					return nil, fmt.Errorf("geostore: polygon %d ring %d: %w", i, ri, err)
				}
				ring = append(ring, geom.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
				})
			}
			rings = append(rings, ring)
		}
		p, err := geom.NewPolygon(rings[0], rings[1:]...)
		if err != nil {
			return nil, fmt.Errorf("geostore: polygon %d: %w", i, err)
		}
		polys = append(polys, p)
	}
	want := crc.Sum64()
	// The checksum trailer is read from the raw reader so it is not folded
	// into the hash.
	var got uint64
	if err := binary.Read(raw, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("geostore: read checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("geostore: checksum mismatch: file %016x, computed %016x", got, want)
	}
	return New(polys)
}
