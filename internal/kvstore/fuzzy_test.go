package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// stepFS is a vfs.Mem that reports each step a store takes on it — an
// append to or a sync of a file it created, a rename, a removal — once
// the step is done.
type stepFS struct {
	*vfs.Mem
	after func(op, name string)
}

func (s *stepFS) Create(name string) (vfs.File, error) {
	f, err := s.Mem.Create(name)
	if err != nil {
		return nil, err
	}
	return &stepFile{File: f, fs: s, name: name}, nil
}

func (s *stepFS) Rename(oldname, newname string) error {
	err := s.Mem.Rename(oldname, newname)
	s.after("rename", oldname)
	return err
}

func (s *stepFS) Remove(name string) error {
	err := s.Mem.Remove(name)
	s.after("remove", name)
	return err
}

type stepFile struct {
	vfs.File
	fs   *stepFS
	name string
}

func (f *stepFile) Append(p []byte) (int64, error) {
	off, err := f.File.Append(p)
	f.fs.after("append", f.name)
	return off, err
}

func (f *stepFile) Sync() error {
	err := f.File.Sync()
	f.fs.after("sync", f.name)
	return err
}

// fuzzyKeys is how many keys each writer of TestCrashDuringFuzzyCheckpoint
// sets per batch. With both writers' keys interleaved, the table spans
// several leaves and every leaf holds keys of both.
const fuzzyKeys = 64

// fuzzyBatch is writer w's batch j: it sets each of the writer's keys to
// j, merges one more "+" into its counter, puts its flag when j is odd
// and deletes it when j is even, and puts a key of its own. The writer's
// keys then name the batches the store holds, and half a batch or a
// missing one shows.
func fuzzyBatch(w, j int) *Batch {
	b := &Batch{}
	for k := 0; k < fuzzyKeys; k++ {
		b.PutOwned(fmt.Appendf(nil, "k%02d/w%d", k, w), fmt.Appendf(nil, "%064d", j))
	}
	b.MergeOwned(fmt.Appendf(nil, "n/w%d", w), []byte("+"))
	b.PutOwned(fmt.Appendf(nil, "b/w%d/%06d", w, j), nil)
	if flag := fmt.Appendf(nil, "odd/w%d", w); j%2 == 1 {
		b.PutOwned(flag, []byte("odd"))
	} else {
		b.DeleteOwned(flag)
	}
	return b
}

// fuzzyBatches returns how many of writer w's batches db holds, or an
// error if its keys hold no state that a prefix of its batches leaves.
func fuzzyBatches(db *DB, w int) (int, error) {
	n, err := db.Get(fmt.Appendf(nil, "n/w%d", w))
	if err != nil && err != ErrNotFound {
		return 0, err
	}
	j := len(n)
	if !bytes.Equal(n, bytes.Repeat([]byte("+"), j)) {
		return 0, fmt.Errorf("writer %d's counter = %q", w, n)
	}
	for k := 0; k < fuzzyKeys; k++ {
		v, err := db.Get(fmt.Appendf(nil, "k%02d/w%d", k, w))
		if err != nil || string(v) != fmt.Sprintf("%064d", j) {
			return 0, fmt.Errorf("writer %d holds %d batches, but its key %d = %q, %v", w, j, k, v, err)
		}
	}
	if _, err := db.Get(fmt.Appendf(nil, "odd/w%d", w)); (err == nil) != (j%2 == 1) {
		return 0, fmt.Errorf("writer %d holds %d batches, but its flag reads %v", w, j, err)
	}
	it, err := db.NewIterator()
	if err != nil {
		return 0, err
	}
	defer it.Close()
	own, i := fmt.Appendf(nil, "b/w%d/", w), 0
	for it.Seek(own); it.Valid() && bytes.HasPrefix(it.Key(), own); it.Next() {
		if i++; string(it.Key()) != fmt.Sprintf("%s%06d", own, i) {
			return 0, fmt.Errorf("writer %d holds %d batches, but batch %d's own key is %q", w, j, i, it.Key())
		}
	}
	if i != j {
		return 0, fmt.Errorf("writer %d holds %d batches, but the own keys of %d", w, j, i)
	}
	return j, nil
}

// TestCrashDuringFuzzyCheckpoint crashes a store at each step of a
// checkpoint taken while two writers go on: the log rotated, mid-scan,
// CHECKPOINT.tmp written, synced and renamed, the covered log removed.
// The scan waits after its first leaf until each writer has applied two
// more batches, so the checkpoint holds values of batches logged after
// the rotation, and leaves of one batch beside leaves of an older one.
// With SyncWAL the recovered store holds, per writer, the batches it had
// acknowledged at the crash, and at most those in flight beside them.
// Without SyncWAL it holds a prefix of each writer's batches no shorter
// than the first checkpoint's, never half a batch nor one past a gap:
// that arm fails if the active log is not synced before CHECKPOINT is
// renamed (half batches), or the covered log before the active one (a
// gap).
func TestCrashDuringFuzzyCheckpoint(t *testing.T) {
	const first = 5 // batches per writer under the first checkpoint
	steps := []struct {
		name string
		at   func(op, name string, covered uint64) bool
	}{
		{"log rotated", func(op, name string, covered uint64) bool {
			return op == "sync" && name == walName(covered+1)
		}},
		{"mid-scan", nil},
		{"tmp written", func(op, name string, _ uint64) bool { return op == "append" && name == checkpointTmp }},
		{"tmp synced", func(op, name string, _ uint64) bool { return op == "sync" && name == checkpointTmp }},
		{"renamed", func(op, name string, _ uint64) bool { return op == "rename" && name == checkpointTmp }},
		{"covered log removed", func(op, name string, covered uint64) bool {
			return op == "remove" && name == walName(covered)
		}},
	}
	for _, syncWAL := range []bool{true, false} {
		for _, step := range steps {
			t.Run(fmt.Sprintf("SyncWAL=%v/%s", syncWAL, step.name), func(t *testing.T) {
				var (
					acked       [2]atomic.Int64
					armed       atomic.Bool
					covered     uint64
					mu          sync.Mutex // guards clone and the acked counts around it
					clone       *vfs.Mem
					ackedBefore [2]int64 // batches acknowledged before the clone
					ackedAfter  [2]int64 // and after it
				)
				fs := &stepFS{Mem: vfs.NewMem()}
				crash := func() {
					mu.Lock()
					defer mu.Unlock()
					if clone == nil {
						ackedBefore = [2]int64{acked[0].Load(), acked[1].Load()}
						clone = fs.CrashClone()
						ackedAfter = [2]int64{acked[0].Load(), acked[1].Load()}
					}
				}
				fs.after = func(op, name string) {
					if armed.Load() && step.at != nil && step.at(op, name, covered) {
						crash()
					}
				}
				db := openTestDB(t, Options{FS: fs, Merger: appendMerger, SyncWAL: syncWAL, logBytes: 1 << 30})
				for w := range 2 {
					for j := 1; j <= first; j++ {
						if err := db.Apply(fuzzyBatch(w, j)); err != nil {
							t.Fatal(err)
						}
						acked[w].Store(int64(j))
					}
				}
				if err := db.checkpoint(); err != nil {
					t.Fatal(err)
				}
				leaves := 0
				db.afterLeaf = func() {
					if !armed.Load() {
						return
					}
					if leaves++; leaves == 1 {
						want := [2]int64{acked[0].Load() + 2, acked[1].Load() + 2}
						for deadline := time.Now().Add(10 * time.Second); acked[0].Load() < want[0] || acked[1].Load() < want[1]; {
							if time.Now().After(deadline) {
								t.Error("the writers applied no batch during the scan")
								break
							}
							time.Sleep(100 * time.Microsecond)
						}
						if step.at == nil {
							crash()
						}
					}
				}

				var done atomic.Bool
				var wg sync.WaitGroup
				for w := range 2 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := first + 1; !done.Load(); j++ {
							if err := db.Apply(fuzzyBatch(w, j)); err != nil {
								t.Error(err)
								return
							}
							acked[w].Store(int64(j))
						}
					}()
				}
				for acked[0].Load() == first || acked[1].Load() == first {
					time.Sleep(100 * time.Microsecond) // the log to rotate holds batches of both
				}
				db.mu.Lock()
				covered = db.walNum
				db.mu.Unlock()
				armed.Store(true)
				err := db.checkpoint()
				done.Store(true)
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if leaves < 2 {
					t.Fatalf("the checkpoint scanned %d leaves; the test needs several", leaves)
				}
				if clone == nil {
					t.Fatal("the crash step was never reached")
				}

				re, err := Open(Options{FS: clone, Merger: appendMerger})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				for w := range 2 {
					j, err := fuzzyBatches(re, w)
					if err != nil {
						t.Fatalf("after recovery: %v", err)
					}
					lo, hi := int64(first), ackedAfter[w]+1 // a batch in flight may be durable
					if syncWAL {
						lo = ackedBefore[w]
					}
					if int64(j) < lo || int64(j) > hi {
						t.Errorf("writer %d: recovered %d batches, want %d to %d", w, j, lo, hi)
					}
				}
			})
		}
	}
}
