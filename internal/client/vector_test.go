package client

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/proto"
)

func TestVectoredCreateStatRemoveRoundTrip(t *testing.T) {
	c, daemons, _ := newCluster(t, "mem", 4, Config{})
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
	c, _, _ := newCluster(t, "mem", 4, Config{})
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
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 256})
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
	if err := c.GrowMany([]string{"/data"}, []int64{2000})[0]; err != nil {
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
	c, daemons, _ := newCluster(t, "mem", 4, Config{})
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
	c, daemons, _ := newCluster(t, "mem", 4, Config{})
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

// TestRemoveCollectsUnpublishedWrites removes a file while this client's
// writes to it are unpublished — their size held back by the size-update
// cache, so the metadata owner records size 0 — then creates the path again and grows it over
// the old extent: through Remove and RemoveMany alike, every byte must
// read as a hole, not as the removed file's. The never-written arms pin
// the cost side: a file this client never wrote, closed (as meta_churn's
// are) or still open on a writable descriptor, is removed with one RPC.
func TestRemoveCollectsUnpublishedWrites(t *testing.T) {
	const size = 640 // ten chunks over three daemons
	removers := map[string]func(c *Client, p string) error{
		"Remove":     func(c *Client, p string) error { return c.Remove(p) },
		"RemoveMany": func(c *Client, p string) error { return c.RemoveMany([]string{p})[0] },
	}
	for _, rm := range []string{"Remove", "RemoveMany"} {
		t.Run("size-cache/"+rm, func(t *testing.T) {
			c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, SizeCacheOps: 1000})
			fd, err := c.Open("/gone", O_CREATE|O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.WriteAt(fd, bytes.Repeat([]byte{0xA5}, size), 0); err != nil {
				t.Fatal(err)
			}
			if err := removers[rm](c, "/gone"); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(fd); err != nil {
				t.Fatal(err)
			}
			fd, err = c.Open("/gone", O_CREATE|O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close(fd)
			if err := c.Truncate("/gone", size); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, size)
			if n, err := c.ReadAt(fd, got, 0); n != size || err != nil {
				t.Fatalf("read = %d, %v; want %d, nil", n, err, size)
			}
			if old := size - bytes.Count(got, []byte{0}); old != 0 {
				t.Fatalf("read %d of %d bytes of the removed file", old, size)
			}
		})
	}
	for _, open := range []bool{false, true} {
		t.Run(fmt.Sprintf("never-written/open=%v", open), func(t *testing.T) {
			c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64})
			fd, err := c.Create("/idle")
			if err != nil {
				t.Fatal(err)
			}
			if open {
				defer c.Close(fd)
			} else if err := c.Close(fd); err != nil {
				t.Fatal(err)
			}
			log := logCalls(c)
			if err := c.Remove("/idle"); err != nil {
				t.Fatal(err)
			}
			want := []string{call(c.dist.MetaTarget("/idle"), proto.OpRemoveMeta)}
			if got := take(log); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("removing a never-written file sent %v, want %v", got, want)
			}
		})
	}
}
