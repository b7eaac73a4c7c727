//go:build unix

package vfs

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// Lock takes an exclusive, non-blocking lock on fs for the calling
// process, so two processes never share one directory. On the OS file
// system it is flock(2) on a LOCK file at the root, into which the holder
// writes its pid; the kernel drops the lock when the holder exits, however
// it exits. Any other file system lives in one process's memory, so its
// lock is a no-op. A directory another holder has locked fails with a
// *LockedError naming that holder's pid. The returned release may be
// called more than once.
func Lock(fs FS) (release func() error, err error) {
	o, ok := fs.(*OS)
	if !ok {
		return func() error { return nil }, nil
	}
	name := o.abs(lockFile)
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	var lerr error
	if err := rc.Control(func(fd uintptr) {
		lerr = syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
	}); err != nil {
		lerr = err
	}
	if lerr != nil {
		f.Close()
		if errors.Is(lerr, syscall.EWOULDBLOCK) {
			b, _ := os.ReadFile(name)
			pid, _ := strconv.Atoi(strings.TrimSpace(string(b)))
			return nil, &LockedError{Path: name, PID: pid}
		}
		return nil, lerr
	}
	if err := f.Truncate(0); err == nil {
		_, err = f.WriteAt([]byte(strconv.Itoa(os.Getpid())+"\n"), 0)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		// Closing the descriptor drops the lock; a second close is a no-op.
		if err := f.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
			return err
		}
		return nil
	}, nil
}
