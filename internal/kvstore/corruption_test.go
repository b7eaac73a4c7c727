package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/vfs"
)

// TestCheckpointCorruptionFailsOpen flips each byte of CHECKPOINT in
// turn, and cuts it short at several lengths: every damaged copy must
// fail Open with an error naming the file, never load an empty or partial
// table. The log's rule that a torn tail is the crash-lost suffix does not
// apply here: the sync and rename before a checkpoint is installed
// guarantee a whole file, so any damage is corruption.
func TestCheckpointCorruptionFailsOpen(t *testing.T) {
	mem := vfs.NewMem()
	db, err := Open(Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	good := readFile(t, mem, checkpointName)

	open := func(img []byte) (*DB, error) {
		fs := mem.CrashClone()
		f, err := fs.Create(checkpointName)
		if err == nil {
			_, err = f.Append(img)
		}
		if err != nil {
			t.Fatal(err)
		}
		return Open(Options{FS: fs})
	}
	mustFail := func(what string, img []byte) {
		t.Helper()
		db, err := open(img)
		if err == nil {
			db.Close()
			t.Fatalf("%s: Open succeeded", what)
		}
		if !strings.Contains(err.Error(), checkpointName) {
			t.Fatalf("%s: error %q does not name %s", what, err, checkpointName)
		}
	}
	for off := range good {
		img := bytes.Clone(good)
		img[off] ^= 0xff
		mustFail(fmt.Sprintf("byte %d flipped", off), img)
	}
	for _, n := range []int{0, 1, checkpointHdr, checkpointHdr + 4, len(good) / 2, len(good) - 1} {
		mustFail(fmt.Sprintf("cut to %d bytes", n), good[:n])
	}
	db, err = open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		if v, err := db.Get(key(i)); err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("undamaged copy: Get(%d) = %q, %v", i, v, err)
		}
	}
}

// readFile returns the bytes of fs's file name.
func readFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	buf := make([]byte, fileSize(t, fs, name))
	f, err := fs.Open(name)
	if err == nil {
		defer f.Close()
		_, err = f.ReadAt(buf, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// crashFS is a vfs.Mem that takes its CrashClone at one chosen step:
// crashAt sees each rename, removal and log append before it happens, and
// the first call it accepts is where the node dies. An append chosen so is
// torn: half of it is made durable before the clone.
type crashFS struct {
	*vfs.Mem
	crashAt func(op, name string) bool
	onCrash func(*vfs.Mem)
	crashed atomic.Bool
}

func (c *crashFS) step(op, name string, partial func()) {
	if !c.crashed.Load() && c.crashAt(op, name) && c.crashed.CompareAndSwap(false, true) {
		if partial != nil {
			partial()
		}
		c.onCrash(c.Mem.CrashClone())
	}
}

func (c *crashFS) Rename(oldname, newname string) error {
	c.step("rename", oldname, nil)
	return c.Mem.Rename(oldname, newname)
}

func (c *crashFS) Remove(name string) error {
	c.step("remove", name, nil)
	return c.Mem.Remove(name)
}

func (c *crashFS) Create(name string) (vfs.File, error) {
	f, err := c.Mem.Create(name)
	if err != nil || !strings.HasPrefix(name, "wal-") {
		return f, err
	}
	return &crashLog{File: f, fs: c, name: name}, nil
}

type crashLog struct {
	vfs.File
	fs   *crashFS
	name string
}

func (l *crashLog) Append(p []byte) (int64, error) {
	torn := false
	l.fs.step("append", l.name, func() {
		torn = true
		l.File.Append(p[:len(p)/2])
		l.File.Sync()
	})
	if torn {
		return l.File.Append(p[len(p)/2:])
	}
	return l.File.Append(p)
}

// TestCrashAtCheckpointSteps crashes a store with a synced log at each
// step of its second checkpoint: after CHECKPOINT.tmp is synced but before
// the rename, after the rename but before the covered log is removed; and
// mid-append to the log after the first. Recovery must hold exactly what was
// acknowledged. The merge operator appends, so a log replayed on top of
// the checkpoint that covers it would show as doubled operands; a covered
// log is not replayed at all, so recovery then has nothing to checkpoint.
func TestCrashAtCheckpointSteps(t *testing.T) {
	cases := []struct {
		name        string
		crashAt     func(op, name string) bool
		checkpoints uint64 // written by recovery
	}{
		{"tmp synced, not renamed", func(op, _ string) bool { return op == "rename" }, 1},
		{"renamed, log not removed", func(op, name string) bool { return op == "remove" && strings.HasPrefix(name, "wal-") }, 0},
		{"mid-append to the next log", func() func(op, _ string) bool {
			appends := 0 // the tenth append to the next log is torn
			return func(op, _ string) bool {
				if op == "append" {
					appends++
				}
				return appends == 10
			}
		}(), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var clone *vfs.Mem
			model := foldModel{}
			var acked foldModel
			never := func(string, string) bool { return false }
			fs := &crashFS{Mem: vfs.NewMem(), crashAt: never, onCrash: func(m *vfs.Mem) {
				clone, acked = m, model.clone()
			}}
			db := openTestDB(t, Options{FS: fs, Merger: appendMerger, SyncWAL: true, logBytes: 1 << 30})
			rnd := rand.New(rand.NewSource(*foldSeed))
			keys := []string{"a", "b", "c", "d"}
			write := func(n int) {
				for i := 0; i < n; i++ {
					k, v := keys[rnd.Intn(len(keys))], []byte(fmt.Sprintf("%d.", i))
					var err error
					op := []kind{kindPut, kindMerge, kindMerge, kindMerge}[rnd.Intn(4)]
					if op == kindPut {
						err = put(db, []byte(k), v)
					} else {
						err = merge(db, []byte(k), v)
					}
					if err != nil {
						t.Fatal(err)
					}
					model.apply(op, k, v)
				}
			}
			write(100)
			if err := db.checkpoint(); err != nil {
				t.Fatal(err)
			}
			fs.crashAt = tc.crashAt
			write(100)
			if err := db.checkpoint(); err != nil {
				t.Fatal(err)
			}
			write(100)
			if clone == nil {
				t.Fatal("the crash step was never reached")
			}

			re, err := Open(Options{FS: clone, Merger: appendMerger, SyncWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if err := acked.checkAgainst(re, keys); err != nil {
				t.Fatalf("after recovery: %v", err)
			}
			if n := re.Stats().Checkpoints; n != tc.checkpoints {
				t.Fatalf("recovery wrote %d checkpoints, want %d", n, tc.checkpoints)
			}
			names, _ := clone.List("")
			sort.Strings(names)
			if fmt.Sprint(names) != fmt.Sprintf("[%s %s]", checkpointName, walName(re.walNum)) {
				t.Fatalf("files after recovery: %v", names)
			}
		})
	}
}

// TestManyReopenCycles puts the store through repeated write/close/open
// cycles, accumulating state across generations of logs and checkpoints.
func TestManyReopenCycles(t *testing.T) {
	mem := vfs.NewMem()
	const cycles = 8
	const perCycle = 150
	for c := 0; c < cycles; c++ {
		db, err := Open(Options{FS: mem, logBytes: 2048})
		if err != nil {
			t.Fatalf("cycle %d open: %v", c, err)
		}
		for i := 0; i < perCycle; i++ {
			k := []byte(fmt.Sprintf("cycle-%d-key-%d", c, i))
			if err := put(db, k, val(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Every earlier cycle's data must still be intact.
		for pc := 0; pc <= c; pc++ {
			for i := 0; i < perCycle; i += 37 {
				k := []byte(fmt.Sprintf("cycle-%d-key-%d", pc, i))
				v, err := db.Get(k)
				if err != nil || !bytes.Equal(v, val(i)) {
					t.Fatalf("cycle %d: lost %s: %q, %v", c, k, v, err)
				}
			}
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", c, err)
		}
	}
}

// TestCrashDuringHeavyWrites crashes mid-stream at several points and
// verifies the store always reopens cleanly with a prefix of the
// acknowledged synced state.
func TestCrashDuringHeavyWrites(t *testing.T) {
	for _, crashAt := range []int{10, 100, 500, 999} {
		mem := vfs.NewMem()
		db, err := Open(Options{FS: mem, SyncWAL: true, logBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= crashAt; i++ {
			if err := put(db, key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		crashed := mem.CrashClone()
		db.Close()

		db2, err := Open(Options{FS: crashed, SyncWAL: true})
		if err != nil {
			t.Fatalf("crashAt=%d reopen: %v", crashAt, err)
		}
		for i := 0; i <= crashAt; i++ {
			v, err := db2.Get(key(i))
			if err != nil || !bytes.Equal(v, val(i)) {
				t.Fatalf("crashAt=%d: acknowledged key %d lost: %q, %v", crashAt, i, v, err)
			}
		}
		db2.Close()
	}
}

// TestIteratorSeekPropertyAgainstModel cross-checks Seek against a sorted
// model over a store whose keys were deleted both before and after a
// checkpoint.
func TestIteratorSeekPropertyAgainstModel(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 1024})
	model := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%04d", (i*7919)%1000)
		if err := put(db, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		model[k] = true
	}
	for i := 0; i < 1000; i += 3 {
		k := fmt.Sprintf("k%04d", i)
		if err := del(db, []byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 1000; i += 3 {
		k := fmt.Sprintf("k%04d", i)
		if err := del(db, []byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for probe := 0; probe < 1000; probe += 13 {
		target := fmt.Sprintf("k%04d", probe)
		// Model answer: smallest live key >= target.
		want := ""
		for k := range model {
			if k >= target && (want == "" || k < want) {
				want = k
			}
		}
		it.Seek([]byte(target))
		if want == "" {
			if it.Valid() {
				t.Fatalf("Seek(%s): got %q, want exhausted", target, it.Key())
			}
			continue
		}
		if !it.Valid() || string(it.Key()) != want {
			t.Fatalf("Seek(%s): got %q (valid=%v), want %q", target, it.Key(), it.Valid(), want)
		}
	}
}
