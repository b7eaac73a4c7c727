//go:build unix

package vfs

import (
	"errors"
	"os"
	"testing"
)

// TestLockIsExclusive: an OS directory has one holder at a time, a second
// Lock fails naming the holder's pid, and a released lock can be taken
// again. A Mem file system lives in one process, so its lock never fails.
func TestLockIsExclusive(t *testing.T) {
	fs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release, err := Lock(fs)
	if err != nil {
		t.Fatal(err)
	}
	var held *LockedError
	if _, err := Lock(fs); !errors.As(err, &held) || held.PID != os.Getpid() {
		t.Fatalf("second Lock = %v; want a LockedError naming pid %d", err, os.Getpid())
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	if err := release(); err != nil {
		t.Fatalf("a second release: %v", err)
	}
	again, err := Lock(fs)
	if err != nil {
		t.Fatalf("Lock after release: %v", err)
	}
	again()

	mem := NewMem()
	for i := 0; i < 2; i++ {
		if _, err := Lock(mem); err != nil {
			t.Fatalf("Lock of a Mem file system: %v", err)
		}
	}
}
