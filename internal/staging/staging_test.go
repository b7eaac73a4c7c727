package staging_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/staging"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

// newStageCluster builds an in-process deployment and one client wired
// to it, returning the daemons so tests can inspect operation counters
// and mount them again (mountStage).
func newStageCluster(t testing.TB, nodes int, cfg client.Config) (*client.Client, []*daemon.Daemon) {
	t.Helper()
	daemons := make([]*daemon.Daemon, nodes)
	for i := range daemons {
		d, err := daemon.New(daemon.Config{ID: i, FS: vfs.NewMem(), ChunkSize: cfg.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		daemons[i] = d
	}
	c := mountStage(t, daemons, cfg, nil)
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	return c, daemons
}

// mountStage wires a client to daemons: another mount of the deployment
// newStageCluster built. wire, when non-nil, drives each daemon's
// connection.
func mountStage(t testing.TB, daemons []*daemon.Daemon, cfg client.Config, wire *wiretest.Script) *client.Client {
	t.Helper()
	cfg.Conns = make([]rpc.Conn, len(daemons))
	for i, d := range daemons {
		cfg.Conns[i] = wiretest.Dial(t, d.Server(), wiretest.Mem, 1)
	}
	if wire != nil {
		wire.Wrap(cfg.Conns)
	}
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sumStats(daemons []*daemon.Daemon) daemon.Stats {
	var total daemon.Stats
	for _, d := range daemons {
		total.Add(d.Stats())
	}
	return total
}

func writeHostFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// patterned returns deterministic non-zero data.
func patterned(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	for i := range b {
		if b[i] == 0 {
			b[i] = 0xA5
		}
	}
	return b
}

// mustStageIn / mustStageOut run a transfer and assert it finished with
// no failures of any kind.
func mustStageIn(t *testing.T, c *client.Client, hostDir, fsDir string, opts staging.Options) *staging.Report {
	t.Helper()
	rep, err := staging.StageIn(c, hostDir, fsDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("per-file failures: %v", err)
	}
	return rep
}

func mustStageOut(t *testing.T, c *client.Client, fsDir, hostDir string, opts staging.Options) *staging.Report {
	t.Helper()
	rep, err := staging.StageOut(c, fsDir, hostDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("per-file failures: %v", err)
	}
	return rep
}

// compareTrees asserts every regular file under want has an identical
// counterpart under got, and vice versa.
func compareTrees(t *testing.T, want, got string) {
	t.Helper()
	count := func(root string) int {
		n := 0
		filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				t.Fatalf("walk %s: %v", p, err)
			}
			if !d.IsDir() {
				n++
			}
			return nil
		})
		return n
	}
	filepath.WalkDir(want, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			t.Fatalf("walk %s: %v", p, err)
		}
		if d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel(want, p)
		w, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(got, rel))
		if err != nil {
			t.Fatalf("round-tripped file missing: %v", err)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s differs after round trip (%d vs %d bytes)", rel, len(w), len(g))
		}
		return nil
	})
	if cw, cg := count(want), count(got); cw != cg {
		t.Fatalf("tree file counts differ: %d vs %d", cw, cg)
	}
}

// allocatedBytes reports a host file's allocated (non-hole) bytes, or -1
// when the platform does not expose block counts.
func allocatedBytes(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return -1
	}
	return st.Blocks * 512
}

// TestStageRoundTripFidelity stages a mixed tree in and back out and
// requires byte identity, including a sparse file whose holes must
// survive the round trip.
func TestStageRoundTripFidelity(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			c, _ := newStageCluster(t, 4, client.Config{ChunkSize: 64 << 10, AsyncWrites: async})
			src, out := t.TempDir(), t.TempDir()

			writeHostFile(t, filepath.Join(src, "small.txt"), []byte("hello staging"))
			writeHostFile(t, filepath.Join(src, "empty.dat"), nil)
			writeHostFile(t, filepath.Join(src, "sub", "with space.txt"), []byte("spaced name"))
			// Large: several chunks across every daemon.
			writeHostFile(t, filepath.Join(src, "sub", "deep", "large.bin"), patterned(1<<20, 1))
			// Sparse: data, a 2 MiB hole, data, then a 1 MiB trailing hole.
			sp, err := os.Create(filepath.Join(src, "sparse.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sp.WriteAt(patterned(8<<10, 2), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := sp.WriteAt(patterned(8<<10, 3), 2<<20); err != nil {
				t.Fatal(err)
			}
			if err := sp.Truncate(3 << 20); err != nil {
				t.Fatal(err)
			}
			if err := sp.Close(); err != nil {
				t.Fatal(err)
			}

			rep := mustStageIn(t, c, src, "/job", staging.Options{Workers: 4})
			if rep.Files != 5 {
				t.Fatalf("stage-in moved %d files, want 5", rep.Files)
			}
			if rep.Dirs != 2 {
				t.Fatalf("stage-in created %d dirs, want 2", rep.Dirs)
			}
			info, err := c.Stat("/job/sparse.bin")
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != 3<<20 {
				t.Fatalf("sparse file staged to %d bytes, want %d", info.Size(), 3<<20)
			}

			rep = mustStageOut(t, c, "/job", out, staging.Options{Workers: 4})
			if rep.Files != 5 {
				t.Fatalf("stage-out moved %d files, want 5", rep.Files)
			}
			compareTrees(t, src, out)

			// Holes must come back as holes when the host FS supports
			// them (judged by whether the source file is itself sparse).
			srcAlloc := allocatedBytes(filepath.Join(src, "sparse.bin"))
			outAlloc := allocatedBytes(filepath.Join(out, "sparse.bin"))
			if srcAlloc >= 0 && srcAlloc < 3<<20 {
				if outAlloc < 0 || outAlloc >= 3<<20 {
					t.Fatalf("sparseness lost: src allocates %d bytes, round-trip allocates %d", srcAlloc, outAlloc)
				}
			}
		})
	}
}

// writeSparse writes a fresh host file of size bytes holding 32 KiB
// patterned blocks at offs and holes everywhere else.
func writeSparse(t *testing.T, path string, size, seed int64, offs ...int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range offs {
		if _, err := f.WriteAt(patterned(32<<10, seed+off), off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Truncate(size); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStageSegmentedLargeFile stripes a sparse file over more than two
// ranges and requires byte fidelity for data and holes straddling the
// range boundaries, in both directions and again after a restage.
func TestStageSegmentedLargeFile(t *testing.T) {
	const r = staging.RangeBytes
	const size = 2*r + r/2
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			c, _ := newStageCluster(t, 4, client.Config{ChunkSize: 16 << 10, AsyncWrites: async})
			src, out := t.TempDir(), t.TempDir()
			// Data blocks at irregular offsets, two of them across range
			// boundaries; the rest is holes, including the last range's
			// tail.
			writeSparse(t, filepath.Join(src, "big.bin"), size, 1,
				140<<10, r-12<<10, r+300<<10, 2*r-5<<10, 2*r+r/4)

			opts := staging.Options{Workers: 4}
			rep := mustStageIn(t, c, src, "/job", opts)
			if rep.Files != 1 || rep.Bytes != size {
				t.Fatalf("stage-in report: %s", rep.Summary())
			}
			info, err := c.Stat("/job/big.bin")
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != size {
				t.Fatalf("staged size = %d, want %d", info.Size(), size)
			}
			rep = mustStageOut(t, c, "/job", out, opts)
			if rep.Files != 1 || rep.Bytes != size {
				t.Fatalf("stage-out report: %s", rep.Summary())
			}
			compareTrees(t, src, out)

			// Restage over the existing tree (the truncate-once path) and
			// verify again.
			rep = mustStageIn(t, c, src, "/job", opts)
			if rep.Files != 1 {
				t.Fatalf("restage report: %s", rep.Summary())
			}
			out2 := t.TempDir()
			mustStageOut(t, c, "/job", out2, opts)
			compareTrees(t, src, out2)
		})
	}
}

// TestStageRestageOverOlderVersion restages a tree over an older version
// of itself — one file shrank, one became empty, one became hole-only,
// one grew past two range boundaries — in both directions: into the
// cluster over the old records, and out over the old host copies. None
// of the old version may show through the new one's holes or past its
// end: every file that already existed is emptied once, before any of its
// ranges lands.
func TestStageRestageOverOlderVersion(t *testing.T) {
	const r = staging.RangeBytes
	c, _ := newStageCluster(t, 4, client.Config{ChunkSize: 64 << 10})
	src, out := t.TempDir(), t.TempDir()
	path := func(name string) string { return filepath.Join(src, name) }

	writeSparse(t, path("shrink.bin"), r+r/2, 1, 0, r-16<<10, r+r/2-32<<10)
	writeHostFile(t, path("empty.bin"), patterned(100<<10, 2))
	writeHostFile(t, path("holes.bin"), patterned(256<<10, 3))
	writeHostFile(t, path("grow.bin"), patterned(48<<10, 4))
	mustStageIn(t, c, src, "/job", staging.Options{})
	mustStageOut(t, c, "/job", out, staging.Options{})
	compareTrees(t, src, out)

	writeSparse(t, path("shrink.bin"), 300<<10, 5, 100<<10)
	writeHostFile(t, path("empty.bin"), nil)
	writeSparse(t, path("holes.bin"), 512<<10, 6)
	writeSparse(t, path("grow.bin"), 2*r+10<<10, 7, 16<<10, r-8<<10, 2*r-16<<10)
	rep := mustStageIn(t, c, src, "/job", staging.Options{})
	if rep.Files != 4 {
		t.Fatalf("restage report: %s", rep.Summary())
	}
	for name, want := range map[string]int64{
		"shrink.bin": 300 << 10, "empty.bin": 0, "holes.bin": 512 << 10, "grow.bin": 2*r + 10<<10,
	} {
		info, err := c.Stat("/job/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != want {
			t.Fatalf("restaged %s is %d bytes, want %d", name, info.Size(), want)
		}
	}
	mustStageOut(t, c, "/job", out, staging.Options{})
	compareTrees(t, src, out)
	fresh := t.TempDir()
	mustStageOut(t, c, "/job", fresh, staging.Options{})
	compareTrees(t, src, fresh)
}

// TestStageOutSeesAnotherMountsRewrite stages a checkpoint out through
// one mount, rewrites it at the same size through another, and stages it
// out again: the second copy must be the new content. Nothing here is
// concurrent I/O, so any byte of the previous checkpoint in the second
// copy is a stale cache answering for the wire.
func TestStageOutSeesAnotherMountsRewrite(t *testing.T) {
	writer, daemons := newStageCluster(t, 4, client.Config{})
	stager := mountStage(t, daemons, client.Config{}, nil)
	if err := writer.Mkdir("/ck"); err != nil {
		t.Fatal(err)
	}
	for round, seed := range []int64{1, 2} {
		want := patterned(2<<20, seed)
		fd, err := writer.Open("/ck/state.bin", client.O_WRONLY|client.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writer.WriteAt(fd, want, 0); err != nil {
			t.Fatal(err)
		}
		if err := writer.Close(fd); err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		mustStageOut(t, stager, "/ck", out, staging.Options{})
		got, err := os.ReadFile(filepath.Join(out, "state.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			stale := 0
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					stale++
				}
			}
			t.Fatalf("stage-out %d: %d of %d bytes differ from the current content (%d bytes staged)",
				round+1, stale, len(want), len(got))
		}
	}
}

// TestStageInHoleOnlyFileMovesNoBytes stages a file that is one giant
// hole: the namespace must get the full size, the wire must carry zero
// chunk payload.
func TestStageInHoleOnlyFileMovesNoBytes(t *testing.T) {
	c, daemons := newStageCluster(t, 4, client.Config{ChunkSize: 64 << 10})
	src := t.TempDir()
	f, err := os.Create(filepath.Join(src, "hole.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(8 << 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rep := mustStageIn(t, c, src, "/job", staging.Options{})
	if rep.Files != 1 || rep.Bytes != 8<<20 {
		t.Fatalf("report = %d files, %d bytes; want 1 file, %d bytes", rep.Files, rep.Bytes, 8<<20)
	}
	if st := sumStats(daemons); st.WriteBytes != 0 {
		t.Fatalf("hole-only stage-in pushed %d chunk bytes, want 0", st.WriteBytes)
	}
	info, err := c.Stat("/job/hole.dat")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 8<<20 {
		t.Fatalf("staged size = %d, want %d", info.Size(), 8<<20)
	}
	// The hole reads as zeros.
	fd, err := c.Open("/job/hole.dat", client.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	buf := make([]byte, 4096)
	if _, err := c.ReadAt(fd, buf, 4<<20); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole read back non-zero")
		}
	}
}

// TestStageEmptyFileRoundTrip covers the zero-size edge end to end.
func TestStageEmptyFileRoundTrip(t *testing.T) {
	c, _ := newStageCluster(t, 2, client.Config{ChunkSize: 64 << 10})
	src, out := t.TempDir(), t.TempDir()
	writeHostFile(t, filepath.Join(src, "empty"), nil)
	rep := mustStageIn(t, c, src, "/job", staging.Options{})
	if rep.Files != 1 || rep.Bytes != 0 {
		t.Fatalf("stage-in report = %+v", rep)
	}
	rep = mustStageOut(t, c, "/job", out, staging.Options{})
	if rep.Files != 1 || rep.Bytes != 0 {
		t.Fatalf("stage-out report = %+v", rep)
	}
	fi, err := os.Stat(filepath.Join(out, "empty"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("empty file came back %d bytes", fi.Size())
	}
}

// TestStageDeepAndWideTree pushes a directory past one ReadDir page
// (4096 entries) plus a deep chain, and requires the full population to
// round-trip.
func TestStageDeepAndWideTree(t *testing.T) {
	const wide = 4200 // > proto.DefaultReadDirPage
	c, _ := newStageCluster(t, 4, client.Config{ChunkSize: 64 << 10})
	src, out := t.TempDir(), t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "wide"), 0o777); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wide; i++ {
		if err := os.WriteFile(filepath.Join(src, "wide", fmt.Sprintf("f%05d", i)), nil, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	deep := filepath.Join(src, "a", "b", "c", "d", "e")
	writeHostFile(t, filepath.Join(deep, "leaf.txt"), []byte("deep leaf"))

	rep := mustStageIn(t, c, src, "/job", staging.Options{Workers: 8})
	if rep.Files != wide+1 {
		t.Fatalf("stage-in moved %d files, want %d", rep.Files, wide+1)
	}
	ents, err := c.ReadDir("/job/wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != wide {
		t.Fatalf("cluster listing has %d entries, want %d", len(ents), wide)
	}
	rep = mustStageOut(t, c, "/job", out, staging.Options{Workers: 8})
	if rep.Files != wide+1 {
		t.Fatalf("stage-out moved %d files, want %d", rep.Files, wide+1)
	}
	compareTrees(t, src, out)
}

// TestStageInPartialFailure plants a directory where a file must land:
// that file fails, is recorded, and its siblings still move.
func TestStageInPartialFailure(t *testing.T) {
	c, _ := newStageCluster(t, 2, client.Config{ChunkSize: 64 << 10})
	src := t.TempDir()
	writeHostFile(t, filepath.Join(src, "collide.txt"), []byte("cannot land"))
	writeHostFile(t, filepath.Join(src, "ok.txt"), []byte("sibling moves"))
	if err := c.Mkdir("/job"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/job/collide.txt"); err != nil {
		t.Fatal(err)
	}

	rep, err := staging.StageIn(c, src, "/job", staging.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Files != 1 {
		t.Fatalf("report = %d moved, %d failed; want 1 and 1", rep.Files, rep.Failed)
	}
	rerr := rep.Err()
	if rerr == nil {
		t.Fatal("partial failure reported no error")
	}
	if !strings.Contains(rerr.Error(), "/job/collide.txt") {
		t.Fatalf("failure does not name the path: %v", rerr)
	}
	fd, err := c.Open("/job/ok.txt", client.O_RDONLY)
	if err != nil {
		t.Fatalf("sibling did not move: %v", err)
	}
	defer c.Close(fd)
	buf := make([]byte, 32)
	n, _ := c.ReadAt(fd, buf, 0)
	if string(buf[:n]) != "sibling moves" {
		t.Fatalf("sibling content = %q", buf[:n])
	}
}

// TestStageOutPartialFailure plants a host directory where a cluster
// file must land; the sibling still moves and the failure names the
// path.
func TestStageOutPartialFailure(t *testing.T) {
	c, _ := newStageCluster(t, 2, client.Config{ChunkSize: 64 << 10})
	src, out := t.TempDir(), t.TempDir()
	writeHostFile(t, filepath.Join(src, "blocked.txt"), []byte("x"))
	writeHostFile(t, filepath.Join(src, "fine.txt"), []byte("moves fine"))
	mustStageIn(t, c, src, "/job", staging.Options{})
	if err := os.MkdirAll(filepath.Join(out, "blocked.txt"), 0o777); err != nil {
		t.Fatal(err)
	}

	rep, err := staging.StageOut(c, "/job", out, staging.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Files != 1 {
		t.Fatalf("report = %d moved, %d failed; want 1 and 1", rep.Files, rep.Failed)
	}
	if rerr := rep.Err(); rerr == nil || !strings.Contains(rerr.Error(), "blocked.txt") {
		t.Fatalf("failure does not name the path: %v", rerr)
	}
	got, err := os.ReadFile(filepath.Join(out, "fine.txt"))
	if err != nil || string(got) != "moves fine" {
		t.Fatalf("sibling = %q, %v", got, err)
	}
}

// TestStageOutDaemonDownIsLoud kills a daemon between stage-in and
// stage-out: teardown must report the failure, never a clean transfer
// that quietly lost result data.
func TestStageOutDaemonDownIsLoud(t *testing.T) {
	c, daemons := newStageCluster(t, 4, client.Config{ChunkSize: 64 << 10})
	src := t.TempDir()
	for i := 0; i < 8; i++ {
		writeHostFile(t, filepath.Join(src, fmt.Sprintf("f%d.dat", i)), patterned(8<<10, int64(i)))
	}
	mustStageIn(t, c, src, "/job", staging.Options{})
	daemons[2].Close()
	rep, _ := staging.StageOut(c, "/job", t.TempDir(), staging.Options{})
	if rep.Err() == nil {
		t.Fatal("stage-out with a dead daemon reported a clean transfer")
	}
}

// TestStageInUnsupportedType records symlinks as failures without
// aborting the transfer.
func TestStageInUnsupportedType(t *testing.T) {
	c, _ := newStageCluster(t, 2, client.Config{})
	src := t.TempDir()
	writeHostFile(t, filepath.Join(src, "real.txt"), []byte("data"))
	if err := os.Symlink("real.txt", filepath.Join(src, "link")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	rep, err := staging.StageIn(c, src, "/job", staging.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unsupported != 1 || rep.Files != 1 || rep.Failed != 0 {
		t.Fatalf("report: %s", rep.Summary())
	}
	// A tree whose data all moved is a clean transfer: unsupported
	// entries are notes, not errors.
	if err := rep.Err(); err != nil {
		t.Fatalf("unsupported entry failed the transfer: %v", err)
	}
	if len(rep.Notes) != 1 || !strings.Contains(rep.Notes[0], "link") {
		t.Fatalf("notes = %q", rep.Notes)
	}
}
