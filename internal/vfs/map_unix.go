//go:build unix

package vfs

import "syscall"

// Map maps the first n bytes of f read-write and shared: the view is the
// page cache itself, so a byte written through any descriptor of the
// same inode shows in it, and a byte copied into it is the file's (f
// must be open for writing, as every OS file is). Only OS files map; any
// other file answers ErrNoMap. A page of the view past the file's end
// faults (SIGBUS), as does one the disk cannot back, so whoever reads it
// must know the file's size and that it does not shrink, and whoever
// writes it must guard the copy against the fault
// (debug.SetPanicOnFault). Release the view with Unmap.
func Map(f File, n int) ([]byte, error) {
	of, ok := f.(*osFile)
	if !ok {
		return nil, ErrNoMap
	}
	rc, err := of.f.SyscallConn()
	if err != nil {
		return nil, err
	}
	var m []byte
	var merr error
	if err := rc.Control(func(fd uintptr) {
		m, merr = syscall.Mmap(int(fd), 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	}); err != nil {
		return nil, err
	}
	return m, merr
}

// CanMap reports whether fs's files map: only the OS file system's do.
// A file system wrapping another answers false, whatever it wraps.
func CanMap(fs FS) bool {
	_, ok := fs.(*OS)
	return ok
}

// Unmap releases a view Map returned.
func Unmap(m []byte) error { return syscall.Munmap(m) }
