package daemon_test

import (
	"errors"
	"flag"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

var rewriteSeed = flag.Int64("rewrite.seed", 1, "seed of TestSharedFileRewritesStayFlat's offsets")

// TestSharedFileRewritesStayFlat is the shared-file shape at its hardest
// for the metadata key, against a real daemon: 20 000 synchronous 8 KiB
// rewrites of one file, each followed by an Fsync — a rewrite below the
// descriptor's size floor sends no size update of its own, so the barrier
// is what commits one size grow per write on the key, each a put of the
// grown record. The path is long enough that the store's log passes its
// checkpoint trigger every few thousand rewrites. A size update costs
// what the key's entries cost, so the cost stays flat only if every grow
// replaces the key's one entry: counted, not timed, at the end of every
// window of 2 000 rewrites the store holds fewer key and value bytes than
// two copies of the path — the key once, beside at most the root's small
// record. The grow's contract must be what it was: the final size and
// mtime are right, and a grow against a directory is refused.
func TestSharedFileRewritesStayFlat(t *testing.T) {
	d, err := daemon.New(daemon.Config{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := wiretest.Dial(t, d.Server(), wiretest.Mem, 1)
	c, err := client.New(client.Config{Conns: []rpc.Conn{conn}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	shared := "/shared-" + strings.Repeat("x", 2000)
	fd, err := c.Create(shared)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writes = 20000
		window = 2000
		block  = 8 << 10
		blocks = 512 // a 4 MiB file
	)
	rnd := rand.New(rand.NewSource(*rewriteSeed))
	buf := make([]byte, block)
	kvStats := func() (kv kvstore.Stats) {
		d.Telemetry().Snapshot().View(&kv)
		return kv
	}
	var size int64
	var lastStart time.Time
	for i := 0; i < writes; i++ {
		if i > 0 && i%window == 0 {
			if held := d.StoreBytes(t); held >= 2*int64(len(shared)) {
				t.Errorf("after %d rewrites the store holds %d bytes: more than one entry for the %d-byte path", i, held, len(shared))
			}
		}
		off := int64(rnd.Intn(blocks)) * block
		lastStart = time.Now()
		if _, err := c.WriteAt(fd, buf, off); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if off+block <= size {
			// An extending write reported its size itself.
			if err := c.Fsync(fd); err != nil {
				t.Fatalf("fsync %d: %v", i, err)
			}
		}
		size = max(size, off+block)
	}
	if kv := kvStats(); kv.Puts < writes || kv.Checkpoints < 2 {
		t.Fatalf("%d puts across %d checkpoints, want %d across at least 2", kv.Puts, kv.Checkpoints, writes)
	}

	fi, err := c.Stat(shared)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Errorf("size after %d rewrites = %d, want %d", writes, fi.Size(), size)
	}
	if mt := fi.ModTime(); mt.Before(lastStart) || mt.After(time.Now()) {
		t.Errorf("mtime %v is not the last write's (started %v)", mt, lastStart)
	}

	// A grow against a directory is still refused.
	if err := c.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	e := rpc.NewEnc(32)
	e.Str("/dir").I64(100).U8(0).I64(1)
	resp, err := conn.Call(proto.OpUpdateSize, e.Bytes(), nil, rpc.BulkNone)
	if err != nil {
		t.Fatal(err)
	}
	if errno := proto.Errno(rpc.NewDec(resp).U16()); !errors.Is(errno.Err(), proto.ErrIsDir) {
		t.Errorf("grow against a directory = %v, want ErrIsDir", errno.Err())
	}
}
