package fault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the slice of *os.File the durable files use; FS wraps it to
// inject faults per operation.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Name() string
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// VFS is the filesystem surface behind every durable file: the write-ahead
// log, the checkpoint snapshot it pairs with, and a follower's bootstrap
// snapshot. OS is the real thing; FS injects faults in front of any VFS.
type VFS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// OS is the passthrough VFS over the real filesystem.
type OS struct{}

// OrOS returns fsys, or the real filesystem when fsys is nil: an unset VFS
// means the OS everywhere one is configurable.
func OrOS(fsys VFS) VFS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return osFile(os.OpenFile(name, flag, perm))
}
func (OS) Open(name string) (File, error) { return osFile(os.Open(name)) }
func (OS) CreateTemp(dir, pattern string) (File, error) {
	return osFile(os.CreateTemp(dir, pattern))
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error             { return os.Remove(name) }

// osFile keeps a failed open's nil *os.File from becoming a non-nil File.
func osFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ErrUnsynced marks a Commit whose rename landed but whose directory fsync
// failed: the target already names the new file, but a power cut may
// still revert it to the old one.
var ErrUnsynced = errors.New("fault: renamed, but the directory fsync failed")

// Replacement is the one replace routine behind every durable file (the
// checkpoint snapshot, the log rotation, a follower's bootstrap snapshot):
// temp file, data fsync, rename, directory fsync. Pillai et al., "All File
// Systems Are Not Created Equal" (OSDI '14), show why a crash needs that
// order: the target is the old file until the rename, the new one once
// the directory is synced, either in between, and never torn.
//
// Stage writes and fsyncs; Commit renames and syncs the directory, so a
// caller can write outside its lock and rename under it. Keep takes over
// the open handle; Discard, deferred after Stage, closes the handle and
// removes the temp file unless Commit renamed it.
type Replacement struct {
	fs   VFS
	f    File   // the open temp file; nil once kept or discarded
	tmp  string // the temp name; "" once renamed or removed
	path string
}

// Stage creates a temp file beside path (path's base name plus ".tmp-*"),
// lets write fill it, and fsyncs it; a nil fsys means the OS. On failure
// the temp file is closed and removed and the target is untouched.
func Stage(fsys VFS, path string, write func(io.Writer) error) (*Replacement, error) {
	fsys = OrOS(fsys)
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	r := &Replacement{fs: fsys, f: f, tmp: f.Name(), path: path}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if err != nil {
		r.Discard()
		return nil, err
	}
	return r, nil
}

// Commit renames the staged file over its target, then fsyncs the
// directory so the new name survives a power cut. A failed rename leaves
// the target as it was. A failed directory fsync comes after the rename:
// its error wraps ErrUnsynced.
func (r *Replacement) Commit() error {
	if err := r.fs.Rename(r.tmp, r.path); err != nil {
		return err
	}
	r.tmp = ""
	d, err := r.fs.Open(filepath.Dir(r.path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnsynced, err)
	}
	return nil
}

// Keep hands the open handle to the caller, who must close it; after
// Commit it is a handle on the target. Discard no longer touches it.
func (r *Replacement) Keep() File {
	f := r.f
	r.f = nil
	return f
}

// Discard closes the handle unless Keep took it, and removes the temp
// file unless Commit renamed it. It is idempotent.
func (r *Replacement) Discard() {
	if r.f != nil {
		_ = r.f.Close()
		r.f = nil
	}
	if r.tmp != "" {
		_ = r.fs.Remove(r.tmp)
		r.tmp = ""
	}
}

// FS is a fault-injecting VFS: every operation consults the schedule
// before reaching Base (the real OS when nil). Files it opens inject
// faults on their Write/Sync/Read/Truncate calls through the same
// schedule.
type FS struct {
	Base VFS
	S    *Schedule
}

func (f FS) base() VFS { return OrOS(f.Base) }

func (f FS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return f.open(OpOpen, func() (File, error) { return f.base().OpenFile(name, flag, perm) })
}

func (f FS) Open(name string) (File, error) {
	return f.open(OpOpen, func() (File, error) { return f.base().Open(name) })
}

func (f FS) CreateTemp(dir, pattern string) (File, error) {
	return f.open(OpCreate, func() (File, error) { return f.base().CreateTemp(dir, pattern) })
}

func (f FS) Rename(oldpath, newpath string) error {
	return f.do(OpRename, func() error { return f.base().Rename(oldpath, newpath) })
}

func (f FS) Remove(name string) error {
	return f.do(OpRemove, func() error { return f.base().Remove(name) })
}

// do runs one operation unless the schedule fails it.
func (f FS) do(op Op, run func() error) error {
	d := f.S.Next(op)
	if d.Err != nil {
		return d.Err
	}
	return run()
}

// open runs one open unless the schedule fails it, and wraps the file so
// its own calls consult the schedule too.
func (f FS) open(op Op, open func() (File, error)) (File, error) {
	var file File
	err := f.do(op, func() (err error) {
		file, err = open()
		return err
	})
	if err != nil {
		return nil, err
	}
	return &injectFile{File: file, s: f.S}, nil
}

// injectFile wraps an open file with the schedule's per-call decisions.
type injectFile struct {
	File
	s *Schedule
}

func (f *injectFile) Write(p []byte) (int, error) {
	d := f.s.Next(OpWrite)
	if d.Err != nil {
		// Short write: the first Keep bytes land (a torn frame on disk),
		// the rest are lost with the error.
		keep := min(d.Keep, len(p))
		n := 0
		if keep > 0 {
			n, _ = f.File.Write(p[:keep])
		}
		return n, d.Err
	}
	return f.File.Write(p)
}

func (f *injectFile) Read(p []byte) (int, error) {
	d := f.s.Next(OpRead)
	n, err := f.File.Read(p)
	if d.Flip && n > 0 {
		i := d.Keep
		if i >= n {
			i = 0
		}
		p[i] ^= 0x80
	}
	if d.Err != nil {
		return 0, d.Err
	}
	return n, err
}

func (f *injectFile) Sync() error {
	d := f.s.Next(OpSync)
	if d.Err != nil {
		return d.Err
	}
	return f.File.Sync()
}

func (f *injectFile) Truncate(size int64) error {
	d := f.s.Next(OpTruncate)
	if d.Err != nil {
		return d.Err
	}
	return f.File.Truncate(size)
}
