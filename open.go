package act

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// mapping owns one read-only file mapping. close is idempotent so an
// explicit Index.Close and the GC-driven cleanup can race without a double
// munmap.
type mapping struct {
	data []byte
	once sync.Once
	err  error
}

func (m *mapping) close() error {
	m.once.Do(func() { m.err = munmapFile(m.data) })
	return m.err
}

// hostLittleEndian reports whether this machine stores integers in the flat
// file byte order. Big-endian hosts read flat files through the copying
// path, which decodes word by word.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// OpenIndex opens an index file for serving without deserializing it: the
// file (the WriteTo layout) is memory-mapped read-only and the trie arena
// and lookup table are served in place, aliased straight over the
// page-cache-backed mapping. No arena-sized heap allocation happens and
// no byte of the trie is copied — the open cost is the header read plus one
// structural validation pass, and the kernel pages the arena in on demand,
// so a warm page cache makes open and reload near-instant even at
// census scale. The geometry section (when present) is decoded onto the
// heap from the mapping: exact refinement mutates R-tree state, which cannot
// live in a read-only map.
//
// Fallbacks keep OpenIndex total: platforms without mmap, filesystems that
// refuse the mapping, and big-endian hosts all load via the copying
// ReadIndex path — the result serves identically, it just pays the copy.
// Check [Index.Mapped] to see which path was taken.
//
// A mapped index is immutable (Insert, Remove, and Compact report
// ErrImmutable, as for any deserialized index) and holds the mapping until
// [Index.Close] or, if Close is never called, until the index is garbage
// collected. Close must not race in-flight lookups: swing traffic off the
// index first (e.g. via [Swappable]), or simply drop the last reference
// and let the collector release the mapping after the final reader.
//
// The copying reader verifies the arena checksum; the mapped path skips
// that full-file pass by design and relies on the same structural
// validation every deserialized trie gets, which already guarantees that
// even a corrupted or hostile file cannot drive lookups out of bounds.
func OpenIndex(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The mapping outlives the descriptor; the fallback path finishes
	// reading before this deferred close runs.
	defer f.Close()

	h, err := readFlatHeader(f)
	if err != nil {
		return nil, err
	}
	if !mmapSupported || !hostLittleEndian() {
		return readIndexFlat(bufio.NewReaderSize(f, 1<<20), h)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// The map-time validator is strict about length: a truncated file would
	// otherwise SIGBUS on first touch of the missing pages, and trailing
	// bytes mean the file is not what WriteTo produced.
	if fi.Size() != int64(h.fileSize) {
		return nil, fmt.Errorf("act: file is %d bytes, header says %d", fi.Size(), h.fileSize)
	}
	data, err := mmapFile(f, int64(h.fileSize))
	if err != nil {
		// A filesystem without mmap support (or an exotic size limit) still
		// holds a perfectly good index; serve it through the copy path. The
		// descriptor still sits just past the header.
		return readIndexFlat(bufio.NewReaderSize(f, 1<<20), h)
	}
	m := &mapping{data: data}
	ix, err := assembleMapped(h, m)
	if err != nil {
		m.close()
		return nil, err
	}
	return ix, nil
}

// assembleMapped aliases the flat sections of a mapped flat file (v7 or
// v8) and builds the serving index around them.
func assembleMapped(h *flatHeader, m *mapping) (*Index, error) {
	var nodes []uint64
	if h.arenaWords() > 0 {
		nodes = unsafe.Slice((*uint64)(unsafe.Pointer(&m.data[h.arenaOff])), h.arenaWords())
	}
	var table []uint32
	if h.tableLen > 0 {
		table = unsafe.Slice((*uint32)(unsafe.Pointer(&m.data[h.tableOff])), h.tableLen)
	}
	var ids []uint32
	if h.version >= indexVersionSparse {
		// The id column is tiny relative to the arena; decode (and
		// validate) a heap copy rather than aliasing the mapping, so the
		// index keeps working even after the mapping is closed mid-teardown.
		var err error
		if ids, err = decodeIDColumn(m.data[h.idsOff():h.idsEnd()], h.idSpace); err != nil {
			return nil, err
		}
	}
	var geomSec []byte
	if h.hasGeom {
		geomSec = m.data[h.geomOff:h.fileSize]
	}
	ix, err := assembleFlat(h, nodes, table, ids, geomSec)
	if err != nil {
		return nil, err
	}
	ix.mapped = m
	// GC-driven release: when the last reference to the index goes away —
	// e.g. a Swappable swung a reload in and the final in-flight request
	// finished — the mapping is unmapped without anyone calling Close.
	// KeepAlive fences in the read paths guarantee the index stays
	// reachable until the last instruction that touches mapped memory.
	ix.cleanup = runtime.AddCleanup(ix, func(mp *mapping) { mp.close() }, m)
	return ix, nil
}

// Mapped reports whether the index serves its trie from a file mapping
// (OpenIndex's zero-copy path) rather than heap memory.
func (ix *Index) Mapped() bool { return ix.mapped != nil }

// Close releases the resources an index holds beyond heap memory: the
// file mapping of an index opened with OpenIndex, and the write-ahead log
// of an index attached to one (WithWAL or Recover) — the log is synced and
// its file handle closed. Close is idempotent, and a no-op for plain
// heap-backed indexes — so generic teardown can always Close. After Close
// the index must not be used: a mapped trie aliases the released pages,
// and mutations can no longer reach the log. Mapped indexes that are
// simply dropped (a reload swapping in a successor) need no explicit
// Close; the mapping is released when the collector proves no reader can
// touch it anymore.
func (ix *Index) Close() error {
	// A background compaction may still be walking the file-mapped arena
	// and rotating the log; serialize with it so neither resource is torn
	// away mid-use.
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	var err error
	if log := ix.rs.Load().wal; log != nil {
		err = log.Close()
	}
	if ix.mapped != nil {
		ix.cleanup.Stop()
		if merr := ix.mapped.close(); err == nil {
			err = merr
		}
	}
	return err
}

// keepMapped fences the end of a read path: it keeps ix — and through it
// the file mapping — reachable until the trie walk above it has retired.
// Without the fence the collector may prove ix dead the moment its epoch
// pointer is loaded, run the cleanup, and unmap pages a walk still reads.
// On heap-backed indexes it is free.
func (ix *Index) keepMapped() { runtime.KeepAlive(ix) }
