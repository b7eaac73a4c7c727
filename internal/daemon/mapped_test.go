package daemon_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

// A live chunk read replies from the page cache: the daemon sends views
// of its open chunk files' mappings, which hold the chunk's handle but
// not its path lock while the reply is written. These tests drive a real
// TCP daemon on the OS file system.

// sockBuf bounds the socket buffers of a stalled reply's connection, so
// a 1 MiB reply is still being written while its client reads nothing.
const sockBuf = 64 << 10

// smallSendListener shrinks the send buffer of every connection it
// accepts to sockBuf.
type smallSendListener struct{ net.Listener }

func (l smallSendListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(sockBuf)
	}
	return c, err
}

// mappedDaemon serves a daemon with chunkSize-byte chunks on a fresh OS
// directory over loopback TCP, and mounts a client on it.
func mappedDaemon(t *testing.T, chunkSize int64) (*daemon.Daemon, string, *client.Client) {
	t.Helper()
	fs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{FS: fs, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go transport.ServeTCP(smallSendListener{l}, d.Server())
	conn, err := transport.DialTCP(l.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		l.Close()
		d.Close()
	})
	c, err := client.New(client.Config{Conns: []rpc.Conn{conn}, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	return d, l.Addr().String(), c
}

// blockFill is the content of a file whose 4 KiB block k is filled with
// one byte: k in generation 0, its complement in generation 1, so every
// byte of one generation differs from the other's.
func blockFill(size int, gen byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i>>12) ^ -gen
	}
	return b
}

// rawChunkRead frames an OpReadChunks request for the first n chunks of
// path, exposing their bytes as a BulkOut region.
func rawChunkRead(id uint64, path string, n int, chunkSize int64) []byte {
	spans := make([]proto.ChunkSpan, n)
	for i := range spans {
		spans[i] = proto.ChunkSpan{ID: meta.ChunkID(i), Len: chunkSize}
	}
	e := rpc.NewEnc(64 + 24*n)
	e.Str(path)
	proto.EncodeSpans(e, spans)
	e.U8(0)
	payload := e.Bytes()
	f := binary.LittleEndian.AppendUint32(nil, uint32(8+2+1+4+len(payload)+4))
	f = binary.LittleEndian.AppendUint64(f, id)
	f = binary.LittleEndian.AppendUint16(f, uint16(proto.OpReadChunks))
	f = append(f, byte(rpc.BulkOut))
	f = binary.LittleEndian.AppendUint32(f, uint32(len(payload)))
	f = append(f, payload...)
	return binary.LittleEndian.AppendUint32(f, uint32(int64(n)*chunkSize))
}

// readRawReply reads one response frame and returns its status and bulk.
func readRawReply(c net.Conn) (status byte, bulk []byte, err error) {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var pfx [4]byte
	if _, err := io.ReadFull(c, pfx[:]); err != nil {
		return 0, nil, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(pfx[:]))
	if _, err := io.ReadFull(c, body); err != nil {
		return 0, nil, err
	}
	plen := binary.LittleEndian.Uint32(body[9:])
	blen := binary.LittleEndian.Uint32(body[13+plen:])
	return body[8], body[17+plen:][:blen], nil
}

// TestReadReplyInFlightOutlivesChunkMutation holds a 1 MiB chunk read's
// reply in flight — its client reads nothing, so the daemon's writev
// stalls on a full socket — and meanwhile truncates, removes, overwrites
// or copy-on-write overwrites the file through another connection. The
// mutation must finish while the reply is stuck (a view holds no path
// lock), and the stalled connection must then deliver a whole reply and
// go on serving. The reply is the bytes of the inode the views map:
// after a truncate or remove, which replace or unlink that inode, all
// old; after an overwrite in place, every byte old or new and the bytes
// the stall held back — the reply's last block at least — new. Where
// the socket stalled mid-block that block holds both generations: a
// reply that holds no lock cannot keep a block whole against a write
// landing while it is in flight, any more than a read racing the write.
func TestReadReplyInFlightOutlivesChunkMutation(t *testing.T) {
	const (
		chunkSize = 64 << 10
		chunks    = 16
		size      = chunks * chunkSize
	)
	mutations := []struct {
		name    string
		inPlace bool // the mutation rewrites the inode the views map
		run     func(c *client.Client, path string) error
	}{
		{"truncate", false, func(c *client.Client, path string) error { return c.Truncate(path, 5*chunkSize+1000) }},
		{"remove", false, func(c *client.Client, path string) error { return c.Remove(path) }},
		{"overwrite", true, func(c *client.Client, path string) error { return c.WritePath(path, blockFill(size, 1), 0) }},
		{"overwrite-after-pin", true, func(c *client.Client, path string) error {
			if _, err := c.Snapshot("pin"); err != nil {
				return err
			}
			return c.WritePath(path, blockFill(size, 1), 0)
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			d, addr, c := mappedDaemon(t, chunkSize)
			const path = "/restart"
			fd, err := c.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.WriteAt(fd, blockFill(size, 0), 0); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(fd); err != nil {
				t.Fatal(err)
			}

			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			raw.(*net.TCPConn).SetReadBuffer(sockBuf)
			before := d.Stats().ReadOps
			if _, err := raw.Write(rawChunkRead(1, path, chunks, chunkSize)); err != nil {
				t.Fatal(err)
			}
			for d.Stats().ReadOps == before {
				time.Sleep(time.Millisecond) // the handler has lent its reply once this moves
			}
			time.Sleep(20 * time.Millisecond)

			done := make(chan error, 1)
			go func() { done <- m.run(c, path) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the mutation waited on a reply stalled in flight")
			}

			status, got, err := readRawReply(raw)
			if err != nil || status != 0 || len(got) != size {
				t.Fatalf("stalled reply: status %d, %d bytes, %v; want all %d", status, len(got), err, size)
			}
			old, fresh := blockFill(size, 0), blockFill(size, 1)
			for i := range got {
				if got[i] != old[i] && got[i] != fresh[i] {
					t.Fatalf("reply byte %d is neither generation", i)
				}
			}
			if !m.inPlace && !bytes.Equal(got, old) {
				t.Fatal("the reply changed, though the mutation left the viewed inode alone")
			}
			if last := got[size-4<<10:]; m.inPlace && !bytes.Equal(last, fresh[size-4<<10:]) {
				t.Fatal("the reply's last block, held back by the stall, is not the new generation")
			}
			if _, err := raw.Write(rawChunkRead(2, path, 1, chunkSize)); err != nil {
				t.Fatal(err)
			}
			if status, _, err := readRawReply(raw); err != nil || status != 0 {
				t.Fatalf("the stalled connection's next call: status %d, %v", status, err)
			}
		})
	}
}

// TestPinnedReadRacesFirstOverwrite reads a file at a just-pinned epoch
// while the first overwrite after the pin — the one that copies the
// pre-image and then rewrites the live chunk in place — runs beside it:
// a whole-file overwrite, pwritten, and an 8 KiB one, which the daemon
// copies into the chunk file's mapping. A pinned read copies under the
// path lock instead of viewing the live mapping, and the overwrite's
// copy into the mapping runs after its pre-image is indexed, so the read
// returns the pre-pin bytes whichever side wins.
func TestPinnedReadRacesFirstOverwrite(t *testing.T) {
	const chunkSize = 64 << 10
	const size = 4 * chunkSize
	for _, w := range []struct {
		name     string
		off, len int
	}{{"whole", 0, size}, {"8KiB", chunkSize + 4096, 8 << 10}} {
		t.Run(w.name, func(t *testing.T) {
			d, _, c := mappedDaemon(t, chunkSize)
			old, fresh := blockFill(size, 0), blockFill(size, 1)
			for i := 0; i < 20; i++ {
				path := fmt.Sprintf("/ckpt%d", i)
				fd, err := c.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.WriteAt(fd, old, 0); err != nil {
					t.Fatal(err)
				}
				if err := c.Close(fd); err != nil {
					t.Fatal(err)
				}
				epoch, err := c.Snapshot(fmt.Sprintf("pin%d", i))
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				var werr atomic.Value
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := c.WritePath(path, fresh[w.off:w.off+w.len], int64(w.off)); err != nil {
						werr.Store(err)
					}
				}()
				got := make([]byte, size)
				n, err := c.ReadSnapshot(path, epoch, got, 0)
				wg.Wait()
				if err != nil || n != size {
					t.Fatalf("pinned read %d: %d bytes, %v", i, n, err)
				}
				if e := werr.Load(); e != nil {
					t.Fatal(e)
				}
				if !bytes.Equal(got, old) {
					t.Fatalf("pinned read %d returned bytes written after the pin", i)
				}
			}
			var oc chunkstore.OpenStats
			d.Telemetry().Snapshot().View(&oc)
			if mapped := oc.WriteMappedBytes > 0; mapped != (w.len <= 8<<10) {
				t.Fatalf("%d bytes copied into mappings; want the 8 KiB overwrites mapped and no others", oc.WriteMappedBytes)
			}
		})
	}
}

// TestLiveChunkReadDrawsNoReplyRegion: a live 1 MiB read over TCP sends
// its reply from the chunk files' mappings, so the daemon draws no
// reply-sized region from the pool and counts every byte as mapped; a
// read at a pinned epoch is the copying fallback, which draws one and
// counts its bytes as copied.
func TestLiveChunkReadDrawsNoReplyRegion(t *testing.T) {
	const size = 1 << 20
	d, _, c := mappedDaemon(t, meta.DefaultChunkSize)
	data := blockFill(size, 0)
	fd, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	if _, err := c.WriteAt(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	stats := func() (oc chunkstore.OpenStats) {
		d.Telemetry().Snapshot().View(&oc)
		return oc
	}
	var regions atomic.Int64
	read := func(at func(p []byte) (int, error)) []byte {
		t.Helper()
		got := make([]byte, size)
		regions.Store(0)
		stop := rpc.ObserveDraws(func(n int) {
			if n >= meta.DefaultChunkSize {
				regions.Add(1)
			}
		})
		n, err := at(got)
		stop()
		if err != nil || n != size || !bytes.Equal(got, data) {
			t.Fatalf("read %d bytes, %v; want the file", n, err)
		}
		return got
	}

	before := stats()
	read(func(p []byte) (int, error) { return c.ReadAt(fd, p, 0) })
	after := stats()
	if n := regions.Load(); n != 0 {
		t.Fatalf("a live 1 MiB read drew %d reply-sized regions", n)
	}
	if m, cp := after.MappedBytes-before.MappedBytes, after.CopiedBytes-before.CopiedBytes; m != size || cp != 0 {
		t.Fatalf("live read: %d bytes mapped, %d copied; want %d mapped", m, cp, size)
	}

	epoch, err := c.Snapshot("pin")
	if err != nil {
		t.Fatal(err)
	}
	before = stats()
	read(func(p []byte) (int, error) { return c.ReadSnapshot("/f", epoch, p, 0) })
	after = stats()
	if n := regions.Load(); n != 1 {
		t.Fatalf("a pinned 1 MiB read drew %d reply-sized regions; want the one it copies into", n)
	}
	if m, cp := after.MappedBytes-before.MappedBytes, after.CopiedBytes-before.CopiedBytes; m != 0 || cp != size {
		t.Fatalf("pinned read: %d bytes mapped, %d copied; want %d copied", m, cp, size)
	}
}

// TestChunkReadsAgreeOnEveryCarrier reads one file — full chunks, a hole
// of never-written chunks, a short last chunk — live and at a pinned
// epoch the live file has since moved past, from a daemon on the OS vfs
// (live reads over TCP lend views of the mappings) and one on vfs.Mem
// (every read copies), over every carrier: mem, tcp, tcp-pool and shm,
// whose segment and mem conn take every read into their own region.
// Every read into a dirty buffer returns the same bytes.
func TestChunkReadsAgreeOnEveryCarrier(t *testing.T) {
	const chunkSize = 64 << 10
	const size = 5*chunkSize + 1000
	pinned := make([]byte, size)
	copy(pinned, blockFill(2*chunkSize+100, 0))              // chunks 0-1, a sliver of 2
	copy(pinned[4*chunkSize:], blockFill(chunkSize+1000, 1)) // chunk 4 and a short chunk 5
	live := append([]byte(nil), pinned...)
	copy(live[chunkSize/2:], blockFill(chunkSize, 1)) // overwrite across chunks 0-1 after the pin

	for _, fsKind := range []string{"os", "mem"} {
		t.Run(fsKind, func(t *testing.T) {
			var fs vfs.FS = vfs.NewMem()
			if fsKind == "os" {
				osfs, err := vfs.NewOS(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				fs = osfs
			}
			d, err := daemon.New(daemon.Config{FS: fs, ChunkSize: chunkSize})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			conns := wiretest.Conns(t, d.Server())
			w, err := client.New(client.Config{Conns: []rpc.Conn{conns["mem"]}, ChunkSize: chunkSize})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.EnsureRoot(); err != nil {
				t.Fatal(err)
			}
			fd, err := w.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range [][2]int{{0, 2*chunkSize + 100}, {4 * chunkSize, size}} {
				if _, err := w.WriteAt(fd, pinned[r[0]:r[1]], int64(r[0])); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(fd); err != nil {
				t.Fatal(err)
			}
			epoch, err := w.Snapshot("pin")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WritePath("/f", live[chunkSize/2:chunkSize/2+chunkSize], chunkSize/2); err != nil {
				t.Fatal(err)
			}
			for name, conn := range conns {
				c, err := client.New(client.Config{Conns: []rpc.Conn{conn}, ChunkSize: chunkSize})
				if err != nil {
					t.Fatal(err)
				}
				fd, err := c.Open("/f", client.O_RDONLY)
				if err != nil {
					t.Fatal(err)
				}
				got := bytes.Repeat([]byte{0xEE}, size)
				if n, err := c.ReadAt(fd, got, 0); err != nil || n != size || !bytes.Equal(got, live) {
					t.Errorf("%s: live read: %d bytes, %v, equal %v", name, n, err, bytes.Equal(got, live))
				}
				c.Close(fd)
				got = bytes.Repeat([]byte{0xEE}, size)
				if n, err := c.ReadSnapshot("/f", epoch, got, 0); err != nil || n != size || !bytes.Equal(got, pinned) {
					t.Errorf("%s: pinned read: %d bytes, %v, equal %v", name, n, err, bytes.Equal(got, pinned))
				}
			}
			var oc chunkstore.OpenStats
			d.Telemetry().Snapshot().View(&oc)
			if (oc.MappedBytes > 0) != (fsKind == "os") || oc.CopiedBytes == 0 {
				t.Errorf("reply bytes %d mapped, %d copied; want mapped live reads only on the OS vfs, copied pinned ones", oc.MappedBytes, oc.CopiedBytes)
			}
		})
	}
}

// TestShrunkChunkFileFailsOnlyItsRead shrinks a chunk file behind the
// store's back — an operator, a quota on the data directory — while its
// open handle still knows the old size. Over TCP the reply's view of the
// lost pages faults in the kernel's copy (EFAULT, never a signal): the
// daemon closes that connection, since the frame is cut short, and goes
// on serving; a request queued behind it on the connection is never read
// as the rest of the cut frame. On shm and mem, which never read views,
// the read copies what the file still holds and the lost bytes read as
// zeros.
func TestShrunkChunkFileFailsOnlyItsRead(t *testing.T) {
	const chunkSize = 64 << 10
	dir := t.TempDir()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{FS: fs, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conns := wiretest.Conns(t, d.Server())
	w, err := client.New(client.Config{Conns: []rpc.Conn{conns["mem"]}, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	data := blockFill(2*chunkSize, 0)
	for _, p := range []string{"/f", "/g"} {
		fd, err := w.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(fd, data, 0); err != nil {
			t.Fatal(err)
		}
		w.Close(fd)
	}
	chunk0, err := filepath.Glob(filepath.Join(dir, "chunks", "*f", "0"))
	if err != nil || len(chunk0) != 1 {
		t.Fatalf("chunk 0 of /f: %v, %v", chunk0, err)
	}
	restore := func() {
		t.Helper()
		if err := w.WritePath("/f", data[:chunkSize], 0); err != nil {
			t.Fatal(err)
		}
	}
	shrink := func() {
		t.Helper()
		restore()
		if err := os.Truncate(chunk0[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	want := append(make([]byte, chunkSize), data[chunkSize:]...)

	for _, name := range []string{"mem", "shm"} {
		conn, ok := conns[name]
		if !ok {
			continue
		}
		c, err := client.New(client.Config{Conns: []rpc.Conn{conn}, ChunkSize: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		fd, err := c.Open("/f", client.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		shrink()
		got := bytes.Repeat([]byte{0xEE}, len(data))
		n, err := c.ReadAt(fd, got, 0)
		c.Close(fd)
		if err != nil || n != len(data) || !bytes.Equal(got, want) {
			t.Errorf("%s: read of the shrunk chunk: %d bytes, %v, equal %v; want the lost bytes as zeros", name, n, err, bytes.Equal(got, want))
		}
	}

	l := wiretest.ServeTCP(t, d.Server())
	raw := func() net.Conn {
		t.Helper()
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return nc
	}
	restore()
	nc := raw()
	nc.Write(rawChunkRead(1, "/f", 2, chunkSize)) // maps chunk 0 at its whole size
	if st, b, err := readRawReply(nc); err != nil || st != 0 || !bytes.Equal(b, data) {
		t.Fatalf("read before the shrink: status %d, %d bytes, %v", st, len(b), err)
	}
	shrink()
	nc.Write(append(rawChunkRead(2, "/f", 2, chunkSize), rawChunkRead(3, "/g", 2, chunkSize)...))
	st, b, err := readRawReply(nc)
	if err == nil {
		t.Fatalf("read of the shrunk chunk over TCP answered status %d with %d bytes; want the connection closed", st, len(b))
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("read of the shrunk chunk over TCP: %v; want the connection closed, not a cut frame left open", err)
	}
	restore()
	nc = raw()
	nc.Write(rawChunkRead(4, "/f", 2, chunkSize))
	if st, b, err := readRawReply(nc); err != nil || st != 0 || !bytes.Equal(b, data) {
		t.Fatalf("daemon after the cut reply: status %d, %d bytes, %v; want the file", st, len(b), err)
	}
}

// TestShrunkChunkFileTakesItsWrite shrinks a chunk file behind the store
// while its open handle still knows the old size, then rewrites 8 KiB in
// it over every carrier. The daemon copies a small in-place rewrite into
// the file's mapping, where the lost pages fault; the copy is guarded,
// so the fault is counted and the write redone by pwrite, which
// re-extends the file. Each write succeeds, its bytes read back over the
// same carrier, and the daemon serves on.
func TestShrunkChunkFileTakesItsWrite(t *testing.T) {
	const chunkSize = 64 << 10
	dir := t.TempDir()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{FS: fs, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conns := wiretest.Conns(t, d.Server())
	w, err := client.New(client.Config{Conns: []rpc.Conn{conns["mem"]}, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	data := blockFill(2*chunkSize, 0)
	for _, p := range []string{"/f", "/g"} {
		fd, err := w.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(fd, data, 0); err != nil {
			t.Fatal(err)
		}
		w.Close(fd)
	}
	chunk0, err := filepath.Glob(filepath.Join(dir, "chunks", "*f", "0"))
	if err != nil || len(chunk0) != 1 {
		t.Fatalf("chunk 0 of /f: %v, %v", chunk0, err)
	}
	faults := func() uint64 {
		var oc chunkstore.OpenStats
		d.Telemetry().Snapshot().View(&oc)
		return oc.MapFaults
	}
	fresh := blockFill(8<<10, 1)
	const off = 8 << 10
	for _, name := range []string{"mem", "shm", "tcp"} {
		conn, ok := conns[name]
		if !ok {
			continue
		}
		c, err := client.New(client.Config{Conns: []rpc.Conn{conn}, ChunkSize: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePath("/f", data[:chunkSize], 0); err != nil { // restore
			t.Fatal(err)
		}
		if err := os.Truncate(chunk0[0], 0); err != nil {
			t.Fatal(err)
		}
		before := faults()
		if err := c.WritePath("/f", fresh, off); err != nil {
			t.Fatalf("%s: 8 KiB rewrite into the shrunk chunk: %v", name, err)
		}
		if n := faults() - before; n < 1 {
			t.Errorf("%s: map faults rose by %d; want the copy into the lost pages counted", name, n)
		}
		fd, err := c.Open("/f", client.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(fresh))
		n, err := c.ReadAt(fd, got, off)
		c.Close(fd)
		if err != nil || n != len(fresh) || !bytes.Equal(got, fresh) {
			t.Errorf("%s: read back of the rewrite: %d bytes, %v, equal %v", name, n, err, bytes.Equal(got, fresh))
		}
	}
	got := make([]byte, len(data))
	fd, err := w.Open("/g", client.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close(fd)
	if n, err := w.ReadAt(fd, got, 0); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("daemon after the faulted writes: %d bytes, %v; want /g whole", n, err)
	}
}
