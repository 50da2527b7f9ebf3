package act

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"

	"github.com/actindex/act/internal/core"
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

// backs reports whether t's arena lies inside the mapping.
func (m *mapping) backs(t *core.Trie) bool {
	nodes := t.Flat().Nodes
	base := uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	return len(nodes) > 0 && uintptr(unsafe.Pointer(&nodes[0]))-base < uintptr(len(m.data))
}

// OpenIndex opens an index file for serving without deserializing it: it
// memory-maps the file (the WriteTo layout) read-only and decodes it as
// ReadIndex does, except that the trie arena and lookup table stay aliased
// over the page-cache-backed mapping and the arena checksum is not verified:
// one full-arena pass would defeat lazy paging, and the structural
// validation every decoded trie gets already keeps even a corrupted or
// hostile file from driving lookups out of bounds. The open cost is that
// validation pass; the kernel pages the arena in on demand. The geometry
// section (when present) is decoded onto the heap: it stores the vertices
// delta-coded, and refinement tests the decoded rings.
//
// Where the file cannot be mapped (no mmap on the platform, or a filesystem
// that refuses it) OpenIndex reads it onto the heap and decodes it exactly
// as ReadIndex does; a big-endian host decodes the mapped words onto the
// heap. [Index.Mapped] tells which happened.
//
// The index is read-only; Recover and OpenFollower open their snapshot
// through OpenIndex and then take writes. It holds the mapping until
// [Index.Close] or, if Close is never called, until it is garbage collected.
// Close must not race in-flight lookups: swing traffic off the index first
// (e.g. via [Swappable]), or simply drop the last reference and let the
// collector release the mapping after the final reader.
func OpenIndex(path string) (*Index, error) { return openIndex(path, mmapFile) }

// openIndex is OpenIndex over the given mapping primitive, so that tests
// can refuse the mapping.
func openIndex(path string, mmap func(*os.File, int64) ([]byte, error)) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := mmap(f, fi.Size())
	if err != nil {
		img, geom, err := readImage(f)
		if err != nil {
			return nil, err
		}
		// readImage stops at the header's fileSize; bytes past it are junk.
		if size := int64(len(img) + len(geom)); size != fi.Size() {
			return nil, fmt.Errorf("act: file is %d bytes, header says %d", fi.Size(), size)
		}
		return decodeImage(img, geom, true)
	}
	m := &mapping{data: data}
	ix, err := decodeImage(data, nil, false)
	if err != nil || !m.backs(ix.live.Load().trie) {
		m.close() // refused, or decoded onto the heap: nothing aliases it
		return ix, err
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
// (OpenIndex's zero-copy path) rather than heap memory. It turns false when
// a compaction of a recovered or follower index replaces that trie.
func (ix *Index) Mapped() bool {
	return ix.mapped != nil && ix.mapped.backs(ix.live.Load().trie)
}

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
