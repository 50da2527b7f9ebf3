package geostore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"

	"github.com/actindex/act/internal/geom"
)

// Serialization format, version 2 (little endian):
//
//	magic      "ACTG"         4 bytes
//	version    uint32         2
//	numPolys   uint64
//	payloadLen uint64         bytes between this field and crc
//	payload, per polygon:
//	  face     byte           grid face the rings are projected onto, < 6
//	  numRings uvarint        outer ring first, then holes
//	  per ring:
//	    numVerts uvarint
//	    verts    numVerts × (dx varint, dy varint)
//	crc        uint64         CRC-64/ECMA of everything above
//
// A coordinate is stored as the zigzag varint of
// int64(Float64bits(v) − Float64bits(prev)), where prev is the same
// coordinate of the vertex before it in one stream running across every ring
// and polygon (zero before the first). Wrapping uint64 arithmetic makes the
// coding lossless: every decoded float64 is bit-identical to the one
// written, -0.0 and all. Neighbouring vertices share their sign, exponent
// and leading mantissa bits, so a delta takes about 3.6 bytes where the raw
// float64 took 8. Every varint is in its shortest form, so a section is a
// pure function of the polygons and their faces.
//
// Version 1 stored numRings and numVerts as uint32 and each vertex as two
// raw float64s, and no face; Read still decodes it, with faces unknown.
//
// The section carries its own magic, version, and checksum so the enclosing
// index file can treat it as an opaque, independently evolvable blob.

const (
	storeMagic   = "ACTG"
	storeVersion = 2
	// headerLen is the fixed v2 prefix before the payload: magic, version,
	// numPolys, payloadLen.
	headerLen = 24

	// numFaces bounds a recorded face: the cube-face grid has six.
	numFaces = 6

	// maxPolygons matches the system's 30-bit polygon-id space (trie
	// payloads cannot reference ids beyond it), so a standalone section is
	// rejected at the same bound every other reader enforces.
	maxPolygons = 1 << 30
	maxRings    = 1 << 20
	maxVerts    = 1 << 26
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encode serializes the polygons at ids, in that order (every slot in id
// order when ids is nil), as a version 2 section. Each must be present and
// the store must know their faces. Read of the result reproduces the
// geometry bit for bit, and Encode of that the same bytes.
func (s *Store) Encode(ids []uint32) ([]byte, error) {
	n := len(s.polys)
	if ids != nil {
		n = len(ids)
	}
	if s.faces == nil && n > 0 {
		return nil, errors.New("geostore: the store records no faces")
	}
	polyAt := func(i int) uint32 {
		if ids == nil {
			return uint32(i)
		}
		return ids[i]
	}
	verts := 0
	for i := range n {
		p := s.Polygon(polyAt(i))
		if p == nil {
			return nil, fmt.Errorf("geostore: no polygon with id %d", polyAt(i))
		}
		verts += p.NumVertices()
	}
	b := make([]byte, headerLen, headerLen+3*n+8*verts+8)
	copy(b, storeMagic)
	binary.LittleEndian.PutUint32(b[4:], storeVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	var px, py uint64
	appendRing := func(ring geom.Ring) {
		b = binary.AppendUvarint(b, uint64(len(ring)))
		for _, v := range ring {
			x, y := math.Float64bits(v.X), math.Float64bits(v.Y)
			b = binary.AppendVarint(b, int64(x-px))
			b = binary.AppendVarint(b, int64(y-py))
			px, py = x, y
		}
	}
	for i := range n {
		id := polyAt(i)
		p := s.polys[id]
		b = append(b, s.faces[id])
		b = binary.AppendUvarint(b, uint64(1+len(p.Holes)))
		appendRing(p.Outer)
		for _, h := range p.Holes {
			appendRing(h)
		}
	}
	binary.LittleEndian.PutUint64(b[16:], uint64(len(b)-headerLen))
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable)), nil
}

// Read deserializes a section written by Encode (version 2) or by an
// earlier release (version 1), which must span all of b: it verifies the
// checksum and refuses trailing bytes. Nothing is allocated from a count the
// bytes cannot back. A version 1 section records no faces, so Face reports
// them unknown.
func Read(b []byte) (*Store, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("geostore: section of %d bytes is truncated", len(b))
	}
	if string(b[:4]) != storeMagic {
		return nil, fmt.Errorf("geostore: bad magic %q", b[:4])
	}
	version := binary.LittleEndian.Uint32(b[4:])
	if version != 1 && version != storeVersion {
		return nil, fmt.Errorf("geostore: unsupported version %d", version)
	}
	// Both versions put numPolys at 8; v2 adds payloadLen at 16.
	fixed := 16
	if version == storeVersion {
		fixed = headerLen
	}
	if len(b) < fixed+8 {
		return nil, fmt.Errorf("geostore: section of %d bytes is truncated", len(b))
	}
	body := b[:len(b)-8]
	if got, want := binary.LittleEndian.Uint64(b[len(body):]), crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("geostore: checksum mismatch: file %016x, computed %016x", got, want)
	}
	numPolys := binary.LittleEndian.Uint64(body[8:])
	if numPolys > maxPolygons {
		return nil, fmt.Errorf("geostore: implausible polygon count %d", numPolys)
	}
	var (
		polys []*geom.Polygon
		faces []uint8
		err   error
	)
	if version == 1 {
		polys, err = readV1(body[fixed:], numPolys)
	} else {
		if n := binary.LittleEndian.Uint64(body[16:]); n != uint64(len(body)-fixed) {
			return nil, fmt.Errorf("geostore: payload is %d bytes, header says %d", len(body)-fixed, n)
		}
		polys, faces, err = readV2(body[fixed:], numPolys)
	}
	if err != nil {
		return nil, err
	}
	return &Store{polys: polys, faces: faces}, nil
}

// cursor reads a payload front to back. A read past the end or a varint
// that is overlong or not in its shortest form marks it bad and reads as
// zero, so a decoder checks bad once per loop rather than after every field.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) u8() uint8 {
	if c.off >= len(c.b) {
		c.bad = true
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || (n > 1 && c.b[c.off+n-1] == 0) {
		c.bad, c.off = true, len(c.b)
		return 0
	}
	c.off += n
	return v
}

// varint reads a zigzag varint as the wrapping difference it codes.
func (c *cursor) varint() uint64 {
	u := c.uvarint()
	return uint64(int64(u>>1) ^ -int64(u&1))
}

func (c *cursor) uint32() uint32 {
	if len(c.b)-c.off < 4 {
		c.bad, c.off = true, len(c.b)
		return 0
	}
	c.off += 4
	return binary.LittleEndian.Uint32(c.b[c.off-4:])
}

// readV2 decodes a version 2 payload in two passes: the first checks its
// shape and counts rings and vertices without allocating, the second
// decodes into one backing array of each, sized by what the first found.
func readV2(payload []byte, numPolys uint64) ([]*geom.Polygon, []uint8, error) {
	// A polygon takes at least a face, two counts and three 2-byte vertices.
	if numPolys > uint64(len(payload))/9 {
		return nil, nil, fmt.Errorf("geostore: %d polygons cannot fit in %d payload bytes", numPolys, len(payload))
	}
	c := cursor{b: payload}
	rings, verts := 0, 0
	for i := range numPolys {
		if face := c.u8(); face >= numFaces {
			return nil, nil, fmt.Errorf("geostore: polygon %d: face %d out of range", i, face)
		}
		nr := c.uvarint()
		if nr == 0 || nr > maxRings {
			return nil, nil, fmt.Errorf("geostore: polygon %d: implausible ring count %d", i, nr)
		}
		for r := range nr {
			nv := c.uvarint()
			if nv < 3 || nv > maxVerts {
				return nil, nil, fmt.Errorf("geostore: polygon %d ring %d: implausible size %d", i, r, nv)
			}
			for k := uint64(0); k < 2*nv && !c.bad; k++ {
				c.uvarint()
			}
			if c.bad {
				return nil, nil, fmt.Errorf("geostore: polygon %d ring %d: truncated or malformed", i, r)
			}
			verts += int(nv)
		}
		rings += int(nr)
	}
	if c.off != len(payload) {
		return nil, nil, fmt.Errorf("geostore: %d trailing payload bytes", len(payload)-c.off)
	}

	pts := make([]geom.Point, verts)
	ringSlab := make([]geom.Ring, rings)
	polys := make([]*geom.Polygon, numPolys)
	faces := make([]uint8, numPolys)
	c = cursor{b: payload}
	var px, py uint64
	for i := range polys {
		faces[i] = c.u8()
		nr := int(c.uvarint())
		rs := ringSlab[:nr:nr]
		ringSlab = ringSlab[nr:]
		for r := range rs {
			nv := int(c.uvarint())
			ring := pts[:nv:nv]
			pts = pts[nv:]
			for v := range ring {
				px += c.varint()
				py += c.varint()
				ring[v] = geom.Point{X: math.Float64frombits(px), Y: math.Float64frombits(py)}
			}
			rs[r] = ring
		}
		p, err := geom.NewPolygon(rs[0], rs[1:]...)
		if err != nil {
			return nil, nil, fmt.Errorf("geostore: polygon %d: %w", i, err)
		}
		polys[i] = p
	}
	return polys, faces, nil
}

// readV1 decodes a version 1 payload: uint32 counts and raw float64 pairs.
func readV1(payload []byte, numPolys uint64) ([]*geom.Polygon, error) {
	// A polygon takes at least two counts and three 16-byte vertices.
	if numPolys > uint64(len(payload))/56 {
		return nil, fmt.Errorf("geostore: %d polygons cannot fit in %d payload bytes", numPolys, len(payload))
	}
	c := cursor{b: payload}
	polys := make([]*geom.Polygon, numPolys)
	for i := range polys {
		nr := c.uint32()
		if nr == 0 || nr > maxRings {
			return nil, fmt.Errorf("geostore: polygon %d: implausible ring count %d", i, nr)
		}
		var rings []geom.Ring
		for r := range nr {
			nv := c.uint32()
			if nv < 3 || nv > maxVerts || uint64(nv)*16 > uint64(len(payload)-c.off) {
				return nil, fmt.Errorf("geostore: polygon %d ring %d: implausible size %d", i, r, nv)
			}
			ring := make(geom.Ring, nv)
			for v := range ring {
				ring[v] = geom.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(payload[c.off:])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(payload[c.off+8:])),
				}
				c.off += 16
			}
			rings = append(rings, ring)
		}
		p, err := geom.NewPolygon(rings[0], rings[1:]...)
		if err != nil {
			return nil, fmt.Errorf("geostore: polygon %d: %w", i, err)
		}
		polys[i] = p
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("geostore: %d trailing payload bytes", len(payload)-c.off)
	}
	return polys, nil
}
