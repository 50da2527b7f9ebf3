package geostore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/bits"

	"github.com/actindex/act/internal/geom"
)

// Serialization format, version 3 (little endian):
//
//	magic      "ACTG"         4 bytes
//	version    uint32         3
//	numPolys   uint64
//	payloadLen uint64         bytes between this field and crc
//	payload, per polygon:
//	  face     byte           grid face the rings are projected onto, < 6
//	  numRings uvarint        outer ring first, then holes
//	  per ring:
//	    numVerts uvarint
//	    repeats  ⌈numVerts/8⌉ bytes: bit k%8 of byte k/8 is set when vertex
//	                          k repeats an earlier vertex; unused bits zero
//	    verts    per vertex, a new one as (dx varint, dy varint), a repeat
//	             as (ref varint)
//	crc        uint64         CRC-64/ECMA of everything above
//
// The vertices form one stream running across every ring and polygon. A new
// vertex stores each coordinate as the zigzag varint of
// int64(Float64bits(v) − Float64bits(prev)), where prev is the same
// coordinate of the vertex before it in the stream (zero before the first).
// Wrapping uint64 arithmetic makes the coding lossless: every decoded float64
// is bit-identical to the one written, -0.0 and all. Neighbouring vertices
// share their sign, exponent and leading mantissa bits, so a delta takes
// about 3.6 bytes where the raw float64 took 8.
//
// Polygons that share a boundary share its vertices, and a section stores
// each distinct vertex (equal bit patterns) once. The distinct vertices,
// numbered in order of first appearance, form the section's vertex table;
// every later occurrence is a repeat, stored as the zigzag varint of
// j − (p − 1), where j is the table index of the vertex it repeats and p the
// table index of the vertex before it in the stream. A neighbour walks the
// shared boundary backwards, so most repeats code as 0 in one byte. On the
// census map half of all vertices repeat and the section shrinks by 37 %.
//
// Every varint is in its shortest form, a vertex is stored as a repeat
// exactly when it equals an earlier one, and unused flag bits are zero, so a
// section is a pure function of the polygons and their faces: Read refuses
// any other coding of them.
//
// Version 2 is version 3 without repeat flags, every vertex stored anew;
// version 1 stored numRings and numVerts as uint32 and each vertex as two raw
// float64s, and no face. Read still decodes both, a version 1 section with
// faces unknown.
//
// The section carries its own magic, version, and checksum so the enclosing
// index file can treat it as an opaque, independently evolvable blob.

const (
	storeMagic   = "ACTG"
	storeVersion = 3
	// headerLen is the fixed prefix before the payload since version 2:
	// magic, version, numPolys, payloadLen.
	headerLen = 24

	// numFaces bounds a recorded face: the cube-face grid has six.
	numFaces = 6

	// maxPolygons matches the system's 30-bit polygon-id space (trie
	// payloads cannot reference ids beyond it), so a standalone section is
	// rejected at the same bound every other reader enforces.
	maxPolygons = 1 << 30
	maxRings    = 1 << 20
	maxVerts    = 1 << 26
	// maxSectionVerts bounds the vertices of a whole section, so a vertex
	// table index fits the int32 slots of vertexTable.
	maxSectionVerts = 1<<31 - 1
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encode serializes the polygons at ids, in that order (every slot in id
// order when ids is nil), as a version 3 section. Each must be present and
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
	if verts > maxSectionVerts {
		return nil, fmt.Errorf("geostore: %d vertices exceed a section's %d", verts, maxSectionVerts)
	}
	b := make([]byte, headerLen, headerLen+3*n+8*verts+8)
	copy(b, storeMagic)
	binary.LittleEndian.PutUint32(b[4:], storeVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	tab := newVertexTable(verts)
	var px, py uint64
	prev := 0 // table index of the stream's previous vertex
	appendRing := func(ring geom.Ring) {
		b = binary.AppendUvarint(b, uint64(len(ring)))
		flags := len(b)
		b = append(b, make([]byte, (len(ring)+7)/8)...)
		for k, v := range ring {
			x, y := math.Float64bits(v.X), math.Float64bits(v.Y)
			// A neighbour walks a shared boundary backwards, so the table
			// entry before the previous vertex's is the likeliest repeat;
			// checking it first spares a third of the hash lookups.
			j, seen := prev-1, prev > 0 && tab.keys[prev-1] == [2]uint64{x, y}
			if !seen {
				j, seen = tab.index(x, y)
			}
			if seen {
				b[flags+k/8] |= 1 << (k % 8)
				b = binary.AppendVarint(b, int64(j-(prev-1)))
			} else {
				b = binary.AppendVarint(b, int64(x-px))
				b = binary.AppendVarint(b, int64(y-py))
			}
			px, py, prev = x, y, j
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

// vertexTable numbers the distinct vertices of a section in order of first
// appearance: keys[j] holds the bit patterns of vertex j. Lookups go through
// a flat open-addressed hash table, at most half full, whose slots hold
// 1 + the table index (0 when empty); a Go map costs several times as much
// per vertex.
type vertexTable struct {
	keys  [][2]uint64
	slots []int32
	shift uint // 64 − log2(len(slots)): a hash's top bits pick the slot
}

// newVertexTable sizes a table for up to n distinct vertices.
func newVertexTable(n int) *vertexTable {
	logSize := bits.Len(uint(2 * n))
	return &vertexTable{
		keys:  make([][2]uint64, 0, n),
		slots: make([]int32, 1<<logSize),
		shift: uint(64 - logSize),
	}
}

// index returns the table index of the vertex (x, y) and whether it was
// there before; an absent vertex is added under the next index.
func (t *vertexTable) index(x, y uint64) (j int, seen bool) {
	key, mask := [2]uint64{x, y}, len(t.slots)-1
	for i := int(((x*0x9e3779b97f4a7c15)^y)*0xbf58476d1ce4e5b9>>t.shift) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.keys = append(t.keys, key)
			t.slots[i] = int32(len(t.keys))
			return len(t.keys) - 1, false
		}
		if t.keys[s-1] == key {
			return int(s - 1), true
		}
	}
}

// Read deserializes a section written by Encode (version 3) or by an
// earlier release (versions 1 and 2), which must span all of b: it verifies
// the checksum and refuses trailing bytes. Nothing is allocated from a count
// the bytes cannot back. A version 1 section records no faces, so Face
// reports them unknown.
func Read(b []byte) (*Store, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("geostore: section of %d bytes is truncated", len(b))
	}
	if string(b[:4]) != storeMagic {
		return nil, fmt.Errorf("geostore: bad magic %q", b[:4])
	}
	version := binary.LittleEndian.Uint32(b[4:])
	if version < 1 || version > storeVersion {
		return nil, fmt.Errorf("geostore: unsupported version %d", version)
	}
	// Every version puts numPolys at 8; v2 added payloadLen at 16.
	fixed := 16
	if version >= 2 {
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
		polys, faces, err = readStream(body[fixed:], numPolys, version >= 3)
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

// flags reads the repeat flags of a ring of nv vertices: ⌈nv/8⌉ bytes, or
// none when the section has no repeats.
func (c *cursor) flags(nv uint64, repeats bool) []byte {
	if !repeats {
		return nil
	}
	n := (nv + 7) / 8
	if uint64(len(c.b)-c.off) < n {
		c.bad, c.off = true, len(c.b)
		return nil
	}
	c.off += int(n)
	return c.b[c.off-int(n) : c.off]
}

func (c *cursor) uint32() uint32 {
	if len(c.b)-c.off < 4 {
		c.bad, c.off = true, len(c.b)
		return 0
	}
	c.off += 4
	return binary.LittleEndian.Uint32(c.b[c.off-4:])
}

// readStream decodes a version 3 payload, or with repeats false a version 2
// one, in two passes: the first checks its shape and counts rings and
// vertices without allocating, the second decodes into one backing array of
// each, sized by what the first found, and resolves repeats.
func readStream(payload []byte, numPolys uint64, repeats bool) ([]*geom.Polygon, []uint8, error) {
	// A polygon takes at least a face, two counts, a flag byte and three
	// 1-byte repeats.
	if numPolys > uint64(len(payload))/7 {
		return nil, nil, fmt.Errorf("geostore: %d polygons cannot fit in %d payload bytes", numPolys, len(payload))
	}
	c := cursor{b: payload}
	rings, verts, fresh := 0, 0, 0 // fresh: vertices not flagged as repeats
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
			flags := c.flags(nv, repeats)
			if pad := nv % 8; len(flags) > 0 && pad != 0 && flags[len(flags)-1]>>pad != 0 {
				return nil, nil, fmt.Errorf("geostore: polygon %d ring %d: repeat flags set past the last vertex", i, r)
			}
			for k := uint64(0); k < nv && !c.bad; k++ {
				c.uvarint()
				if !isRepeat(flags, k) {
					c.uvarint()
					fresh++
				}
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
	if verts > maxSectionVerts {
		return nil, nil, fmt.Errorf("geostore: %d vertices exceed a section's %d", verts, maxSectionVerts)
	}

	pts := make([]geom.Point, verts)
	ringSlab := make([]geom.Ring, rings)
	polys := make([]*geom.Polygon, numPolys)
	faces := make([]uint8, numPolys)
	var tab *vertexTable
	if repeats {
		tab = newVertexTable(fresh)
	}
	c = cursor{b: payload}
	var px, py uint64
	prev := 0 // table index of the stream's previous vertex
	for i := range polys {
		faces[i] = c.u8()
		nr := int(c.uvarint())
		rs := ringSlab[:nr:nr]
		ringSlab = ringSlab[nr:]
		for r := range rs {
			nv := c.uvarint()
			flags := c.flags(nv, repeats)
			ring := pts[:nv:nv]
			pts = pts[nv:]
			for v := range ring {
				switch {
				case isRepeat(flags, uint64(v)):
					// j = prev − 1 + d must name a vertex already in the
					// table; compared on d, nothing overflows.
					d := int64(c.varint())
					if d < int64(1-prev) || d > int64(len(tab.keys)-prev) {
						return nil, nil, fmt.Errorf("geostore: polygon %d ring %d vertex %d: repeat of vertex %d outside the table of %d",
							i, r, v, int64(prev)-1+d, len(tab.keys))
					}
					prev += int(d) - 1
					px, py = tab.keys[prev][0], tab.keys[prev][1]
				case repeats:
					px += c.varint()
					py += c.varint()
					j, seen := tab.index(px, py)
					if seen {
						return nil, nil, fmt.Errorf("geostore: polygon %d ring %d vertex %d: repeats vertex %d but is stored anew", i, r, v, j)
					}
					prev = j
				default:
					px += c.varint()
					py += c.varint()
				}
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

// isRepeat reports whether flags mark vertex k a repeat; nil flags (a
// version 2 ring) mark none.
func isRepeat(flags []byte, k uint64) bool {
	return flags != nil && flags[k/8]>>(k%8)&1 != 0
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
