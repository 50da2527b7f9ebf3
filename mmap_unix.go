//go:build unix

package act

import (
	"os"
	"syscall"
)

// mmapFile maps the first size bytes of f read-only and shared: the pages
// alias the kernel page cache, so the bytes are demand-paged straight from
// the file and never duplicated onto the Go heap.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping returned by mmapFile.
func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
