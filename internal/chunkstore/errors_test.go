package chunkstore

import (
	"errors"
	"testing"

	"repro/internal/vfs"
)

// failOpenFS injects an Open error for every file, standing in for
// permission or I/O failures on the node-local SSD.
type failOpenFS struct {
	vfs.FS
	openErr error
}

func (f *failOpenFS) Open(name string) (vfs.File, error) {
	if f.openErr != nil {
		return nil, f.openErr
	}
	return f.FS.Open(name)
}

// TestReadChunkPropagatesOpenErrors is the regression test for chunk-open
// errors being masked as holes: ReadChunk returned (0, nil) for *any*
// Open failure, silently turning an I/O error into a run of zeros. Only a
// genuinely missing chunk is a hole.
func TestReadChunkPropagatesOpenErrors(t *testing.T) {
	injected := errors.New("ssd: input/output error")
	fs := &failOpenFS{FS: vfs.NewMem()}
	if err := New(fs).WriteChunk("/f", 0, 0, []byte("persisted")); err != nil {
		t.Fatal(err)
	}

	// A store that has not opened the chunk yet: the read has to.
	s := New(fs)
	fs.openErr = injected
	dst := make([]byte, 9)
	n, err := s.ReadChunk("/f", 0, 0, dst)
	if !errors.Is(err, injected) {
		t.Fatalf("ReadChunk = %d, %v; want the injected open error", n, err)
	}

	// A missing chunk is still a hole, not an error.
	fs.openErr = nil
	n, err = s.ReadChunk("/f", 99, 0, dst)
	if n != 0 || err != nil {
		t.Fatalf("missing chunk read = %d, %v; want 0, nil", n, err)
	}
}

// TestTruncateChunksPropagatesOpenErrors is the same masking on the
// truncate side: the final-chunk trim treated *any* Open failure as
// "never written" and reported success with the chunk untrimmed — the
// discarded bytes would come back if the file grew again.
func TestTruncateChunksPropagatesOpenErrors(t *testing.T) {
	const cs = 16
	injected := errors.New("ssd: input/output error")
	fs := &failOpenFS{FS: vfs.NewMem()}
	s := New(fs)
	if err := s.WriteChunk("/f", 0, 0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	fs.openErr = injected
	if err := s.TruncateChunks("/f", cs, 4); !errors.Is(err, injected) {
		t.Fatalf("TruncateChunks = %v; want the injected open error", err)
	}
	fs.openErr = nil
	if err := s.TruncateChunks("/f", cs, 4); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, cs)
	if n, err := s.ReadChunk("/f", 0, 0, dst); err != nil || string(dst[:n]) != "0123" {
		t.Fatalf("read after trim = %q, %v; want %q", dst[:n], err, "0123")
	}
	// A final chunk that was never written is nothing to trim.
	if err := s.TruncateChunks("/hole", cs, 4); err != nil {
		t.Fatalf("truncate of a never-written chunk = %v, want nil", err)
	}
}

// failWriteFS fails every write through a file it created while
// failWrites is set, standing in for a full or failing node-local SSD.
type failWriteFS struct {
	vfs.FS
	failWrites bool
}

type failWriteFile struct {
	vfs.File
	err error
}

func (f *failWriteFile) WriteAt(p []byte, off int64) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	return f.File.WriteAt(p, off)
}

func (f *failWriteFS) Create(name string) (vfs.File, error) {
	nf, err := f.FS.Create(name)
	if err != nil || !f.failWrites {
		return nf, err
	}
	return &failWriteFile{File: nf, err: errors.New("ssd: no space left on device")}, nil
}

// TestTruncateKeepsChunkWholeWhenTrimFails is the regression test for a
// trim that truncated the final chunk in place (O_TRUNC) before writing
// its kept prefix back: a failed write left the chunk empty. The prefix
// now goes to a sibling file renamed over the chunk, so a failure leaves
// the chunk as it was — and no sibling behind.
func TestTruncateKeepsChunkWholeWhenTrimFails(t *testing.T) {
	const cs = 16
	fs := &failWriteFS{FS: vfs.NewMem()}
	s := New(fs)
	if err := s.WriteChunk("/f", 0, 0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	fs.failWrites = true
	if err := s.TruncateChunks("/f", cs, 4); err == nil {
		t.Fatal("TruncateChunks succeeded with every write failing")
	}
	fs.failWrites = false
	dst := make([]byte, cs)
	if n, err := s.ReadChunk("/f", 0, 0, dst); err != nil || string(dst[:n]) != "0123456789" {
		t.Fatalf("chunk after a failed trim = %q, %v; want it whole", dst[:n], err)
	}
	if names, err := fs.List(chunkDir("/f")); err != nil || len(names) != 1 {
		t.Fatalf("chunk directory after a failed trim = %v, %v; want the chunk alone", names, err)
	}
	if err := s.TruncateChunks("/f", cs, 4); err != nil {
		t.Fatal(err)
	}
	if n, err := s.ReadChunk("/f", 0, 0, dst); err != nil || string(dst[:n]) != "0123" {
		t.Fatalf("chunk after the trim = %q, %v; want %q", dst[:n], err, "0123")
	}
}

// TestFailedPinLeavesNoPreImageAfterRestart is the regression test for a
// pre-image copied in place: the pin created snap/<key>.<epoch> and then
// wrote it, so a failed write left an empty file that the running store
// never indexed but a restarted one did, and a read at the pinned epoch
// then returned it — wrong bytes, no error. The copy now goes to a
// sibling renamed into place, so a failed pin leaves nothing to index.
func TestFailedPinLeavesNoPreImageAfterRestart(t *testing.T) {
	fs := &failWriteFS{FS: vfs.NewMem()}
	s := New(fs)
	if err := s.WriteChunkEpoch("/f", 0, 0, []byte("0123456789"), 1, nil); err != nil {
		t.Fatal(err)
	}
	fs.failWrites = true
	if err := s.WriteChunkEpoch("/f", 0, 0, []byte("abcdefghij"), 2, []uint64{1}); err == nil {
		t.Fatal("an overwrite after a pin succeeded with every pre-image write failing")
	}
	fs.failWrites = false
	if names, err := fs.List(snapDir); err != nil || len(names) != 0 {
		t.Fatalf("snap/ after a failed pin = %v, %v; want it empty", names, err)
	}
	restarted := New(fs)
	dst := make([]byte, 16)
	n, err := restarted.ReadChunkAt("/f", 0, 0, dst, 1)
	if err != nil || string(dst[:n]) != "0123456789" {
		t.Fatalf("read at the pinned epoch after a restart = %q, %v; want %q", dst[:n], err, "0123456789")
	}
}
