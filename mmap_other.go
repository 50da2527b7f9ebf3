//go:build !unix

package act

import (
	"errors"
	"os"
)

var errNoMmap = errors.New("act: memory mapping is not supported on this platform")

func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errNoMmap
}

func munmapFile(data []byte) error {
	return errNoMmap
}
