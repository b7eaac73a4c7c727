package client

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/daemon"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// newLocalClusterWithDaemons is newLocalCluster but keeps the daemon
// handles, so tests can assert on server-side counters.
func newLocalClusterWithDaemons(t testing.TB, nodes int, cfg Config) (*Client, []*daemon.Daemon) {
	t.Helper()
	net := transport.NewMemNetwork()
	conns := make([]rpc.Conn, nodes)
	daemons := make([]*daemon.Daemon, nodes)
	for i := 0; i < nodes; i++ {
		d, err := daemon.New(daemon.Config{ID: i, FS: vfs.NewMem(), ChunkSize: cfg.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		daemons[i] = d
		net.Register(i, d.Server())
		conn, err := net.Dial(i)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	cfg.Conns = conns
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	return c, daemons
}

func TestVectoredCreateStatRemoveRoundTrip(t *testing.T) {
	c, daemons := newLocalClusterWithDaemons(t, 4, Config{})
	const n = 40
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/vec/f.%d", i)
	}
	if err := c.Mkdir("/vec"); err != nil {
		t.Fatal(err)
	}
	for i, err := range c.CreateMany(paths) {
		if err != nil {
			t.Fatalf("create %s: %v", paths[i], err)
		}
	}
	// The ops traveled batched: far fewer RPCs than ops, spread over the
	// daemons that own the paths.
	var rpcs, subops uint64
	for _, d := range daemons {
		st := d.Stats()
		rpcs += st.BatchRPCs
		subops += st.BatchedOps
	}
	if subops != n {
		t.Fatalf("batched sub-ops = %d, want %d", subops, n)
	}
	if rpcs > 4 {
		t.Fatalf("batch RPCs = %d, want ≤ one per daemon", rpcs)
	}

	infos, errs := c.StatMany(paths)
	for i := range paths {
		if errs[i] != nil {
			t.Fatalf("stat %s: %v", paths[i], errs[i])
		}
		if infos[i].IsDir() || infos[i].Size() != 0 {
			t.Fatalf("stat %s = %+v", paths[i], infos[i])
		}
	}
	if infos[7].Name() != "f.7" {
		t.Fatalf("stitched name = %q, want caller order preserved", infos[7].Name())
	}

	for i, err := range c.RemoveMany(paths) {
		if err != nil {
			t.Fatalf("remove %s: %v", paths[i], err)
		}
	}
	if ents, err := c.ReadDir("/vec"); err != nil || len(ents) != 0 {
		t.Fatalf("after RemoveMany: %d entries, %v", len(ents), err)
	}
}

func TestVectoredPartialFailureStitching(t *testing.T) {
	c := newLocalCluster(t, 4, Config{})
	// Pre-create every third path; CreateMany over the full set must
	// report ErrExist at exactly those indices and nil elsewhere.
	const n = 30
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pf.%d", i)
	}
	for i := 0; i < n; i += 3 {
		if fd, err := c.Create(paths[i]); err != nil {
			t.Fatal(err)
		} else {
			c.Close(fd)
		}
	}
	errs := c.CreateMany(paths)
	for i := range paths {
		if i%3 == 0 {
			if !errors.Is(errs[i], proto.ErrExist) {
				t.Fatalf("errs[%d] = %v, want ErrExist", i, errs[i])
			}
		} else if errs[i] != nil {
			t.Fatalf("errs[%d] = %v, want nil", i, errs[i])
		}
	}

	// Same stitching on the stat side: missing paths error individually,
	// and a malformed path fails client-side without sinking its batch.
	statPaths := []string{"/pf.1", "/definitely-missing", "relative", "/pf.2"}
	infos, serrs := c.StatMany(statPaths)
	if serrs[0] != nil || serrs[3] != nil {
		t.Fatalf("valid stats errored: %v, %v", serrs[0], serrs[3])
	}
	if !errors.Is(serrs[1], proto.ErrNotExist) {
		t.Fatalf("missing stat = %v", serrs[1])
	}
	if serrs[2] == nil {
		t.Fatal("relative path accepted")
	}
	if infos[0].Name() != "pf.1" || infos[3].Name() != "pf.2" {
		t.Fatalf("stitched infos misordered: %q, %q", infos[0].Name(), infos[3].Name())
	}

	// RemoveMany: mix of files, a directory (falls back to the one-path
	// protocol), a non-empty directory, and a missing path.
	if err := c.Mkdir("/pfdir"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/pffull"); err != nil {
		t.Fatal(err)
	}
	if fd, err := c.Create("/pffull/child"); err != nil {
		t.Fatal(err)
	} else {
		c.Close(fd)
	}
	rerrs := c.RemoveMany([]string{"/pf.0", "/pfdir", "/pffull", "/gone", "/"})
	if rerrs[0] != nil {
		t.Fatalf("file remove = %v", rerrs[0])
	}
	if rerrs[1] != nil {
		t.Fatalf("empty dir remove = %v", rerrs[1])
	}
	if !errors.Is(rerrs[2], proto.ErrNotEmpty) {
		t.Fatalf("non-empty dir remove = %v", rerrs[2])
	}
	if !errors.Is(rerrs[3], proto.ErrNotExist) {
		t.Fatalf("missing remove = %v", rerrs[3])
	}
	if !errors.Is(rerrs[4], proto.ErrInval) {
		t.Fatalf("root remove = %v", rerrs[4])
	}
}

func TestRemoveManyCollectsChunks(t *testing.T) {
	c := newLocalCluster(t, 4, Config{ChunkSize: 256})
	fd, err := c.Create("/data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2000) // spans several chunks and daemons
	for i := range buf {
		buf[i] = 0xAB
	}
	if _, err := c.WriteAt(fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if errs := c.RemoveMany([]string{"/data"}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Recreating the path must not resurrect old chunk data.
	fd, err = c.Create("/data")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	if err := c.GrowSize(fd, 2000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2000)
	if _, err := c.ReadAt(fd, got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("stale chunk byte %#x at %d after RemoveMany", b, i)
		}
	}
}

func TestRemoveFileSkipsStatRPC(t *testing.T) {
	c, daemons := newLocalClusterWithDaemons(t, 4, Config{})
	fd, err := c.Create("/single")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	statsBefore := func() (stats, removes uint64) {
		for _, d := range daemons {
			st := d.Stats()
			stats += st.StatOps
			removes += st.Removes
		}
		return
	}
	s0, r0 := statsBefore()
	if err := c.Remove("/single"); err != nil {
		t.Fatal(err)
	}
	s1, r1 := statsBefore()
	if s1 != s0 {
		t.Fatalf("file remove issued %d stat RPCs, want 0", s1-s0)
	}
	if r1 != r0+1 {
		t.Fatalf("file remove issued %d remove RPCs, want 1", r1-r0)
	}
}

func TestReadDirDrainsMultiplePages(t *testing.T) {
	c, daemons := newLocalClusterWithDaemons(t, 4, Config{})
	c.readDirPage = 7 // force multi-page scans
	const n = 100
	paths := make([]string, n)
	want := make([]string, n)
	for i := range paths {
		want[i] = fmt.Sprintf("page.%03d", i)
		paths[i] = "/" + want[i]
	}
	if errs := c.CreateMany(paths); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name)
	}
	sort.Strings(want)
	if len(got) != n {
		t.Fatalf("paged ReadDir returned %d entries, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %q, want %q (sorted merge broken)", i, got[i], want[i])
		}
	}
	// The drain really paged: more scan calls than daemons.
	var pages uint64
	for _, d := range daemons {
		pages += d.Stats().ReadDirs
	}
	if pages <= uint64(len(daemons)) {
		t.Fatalf("readdir pages served = %d, want > %d (multi-page drain)", pages, len(daemons))
	}
}

// TestNamespaceReadsAtAnyEpoch pins "live is epoch ∞" for the namespace:
// at every pinned epoch and at LiveEpoch, the batched StatManyAt agrees
// entry for entry — info or error — with the single StatAt, ReadDirAt
// lists exactly the paths that stat at the epoch, and the live-named
// calls (Stat, StatMany, ReadDir) are the LiveEpoch ones.
func TestNamespaceReadsAtAnyEpoch(t *testing.T) {
	c, _ := newLocalClusterWithDaemons(t, 4, Config{ChunkSize: 64})
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/d"}
	for i := 0; i < 12; i++ {
		paths = append(paths, fmt.Sprintf("/d/f%02d", i))
	}
	paths = append(paths, "/d/never")
	files := paths[1:13]
	grow := func(p string, size int64) {
		t.Helper()
		fd, err := c.Open(p, O_CREATE|O_WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.GrowSize(fd, size); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	// Three generations, a snapshot after the first two: files come into
	// being, grow, shrink and go between them.
	for i, p := range files[:8] {
		grow(p, int64(10+i))
	}
	e1, err := c.Snapshot("one")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range files[4:] {
		grow(p, int64(100+i))
	}
	if err := c.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate(files[1], 3); err != nil {
		t.Fatal(err)
	}
	e2, err := c.Snapshot("two")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(files[5]); err != nil {
		t.Fatal(err)
	}
	grow(files[0], 7) // recreated after both pins

	sameErr := func(a, b error) bool {
		return (a == nil) == (b == nil) && errors.Is(a, proto.ErrNotExist) == errors.Is(b, proto.ErrNotExist)
	}
	for _, epoch := range []uint64{e1, e2, LiveEpoch} {
		infos, errs := c.StatManyAt(paths, epoch)
		var listed []string
		for i, p := range paths {
			fi, err := c.StatAt(p, epoch)
			if !sameErr(err, errs[i]) || (err == nil && fi != infos[i]) {
				t.Fatalf("epoch %d, %s: StatAt = %+v, %v but StatManyAt = %+v, %v", epoch, p, fi, err, infos[i], errs[i])
			}
			if err == nil && p != "/d" {
				listed = append(listed, fi.Name())
			}
		}
		ents, err := c.ReadDirAt("/d", epoch)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, en := range ents {
			names = append(names, en.Name)
		}
		if fmt.Sprint(names) != fmt.Sprint(listed) {
			t.Fatalf("epoch %d: ReadDirAt lists %v, stat finds %v", epoch, names, listed)
		}
	}
	// What each generation must look like, spot-checked so the three
	// views cannot all agree on the same wrong answer.
	for _, tc := range []struct {
		epoch uint64
		path  string
		size  int64 // -1: absent
	}{
		{e1, files[0], 10}, {e2, files[0], -1}, {LiveEpoch, files[0], 7},
		{e1, files[1], 11}, {e2, files[1], 3},
		{e1, files[5], 15}, {e2, files[5], 101}, {LiveEpoch, files[5], -1},
		{e1, files[9], -1}, {e2, files[9], 105},
	} {
		fi, err := c.StatAt(tc.path, tc.epoch)
		if tc.size < 0 && !errors.Is(err, proto.ErrNotExist) || tc.size >= 0 && (err != nil || fi.Size() != tc.size) {
			t.Fatalf("StatAt(%s, %d) = %+v, %v; want size %d", tc.path, tc.epoch, fi, err, tc.size)
		}
	}
	liveInfos, liveErrs := c.StatMany(paths)
	atInfos, atErrs := c.StatManyAt(paths, LiveEpoch)
	for i, p := range paths {
		fi, err := c.Stat(p)
		if !sameErr(err, liveErrs[i]) || !sameErr(err, atErrs[i]) || (err == nil && (fi != liveInfos[i] || fi != atInfos[i])) {
			t.Fatalf("%s: Stat, StatMany and StatManyAt(LiveEpoch) disagree", p)
		}
	}
	vs, err := c.Versions(files[1])
	if err != nil || len(vs) != 2 || vs[0].Meta.Size != 3 || vs[1].Meta.Size != 11 {
		t.Fatalf("Versions(%s) = %+v, %v; want the truncated state over the pinned one", files[1], vs, err)
	}
}
