package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// rpcLog records every call a client makes, by daemon and op: the count
// "on the conn", below anything the client could forget to count.
type rpcLog struct {
	mu    sync.Mutex
	calls []string // "<node>:<op name>"
}

type loggedConn struct {
	rpc.Conn
	node int
	log  *rpcLog
}

func (c *loggedConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	c.log.mu.Lock()
	c.log.calls = append(c.log.calls, fmt.Sprintf("%d:%s", c.node, proto.OpName(op)))
	c.log.mu.Unlock()
	return c.Conn.Call(op, payload, bulk, dir)
}

// logCalls routes c's connections through a fresh log.
func logCalls(c *Client) *rpcLog {
	log := &rpcLog{}
	for i, conn := range c.cfg.Conns {
		c.cfg.Conns[i] = &loggedConn{Conn: conn, node: i, log: log}
	}
	return log
}

// take returns the calls made since the last take.
func (l *rpcLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

func call(node int, op rpc.Op) string { return fmt.Sprintf("%d:%s", node, proto.OpName(op)) }

// holdConn forwards every call, and holds the reply of the first call of
// op until free is called — the daemon has already applied it, so the
// reply lands late, not the request. held closes when it is caught.
type holdConn struct {
	rpc.Conn
	op      rpc.Op
	caught  atomic.Bool
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (c *holdConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	resp, err := c.Conn.Call(op, payload, bulk, dir)
	if op == c.op && c.caught.CompareAndSwap(false, true) {
		close(c.held)
		<-c.release
	}
	return resp, err
}

// free lets the held reply land. Deferred too, so a failing test does
// not leave the held call blocking its descriptor's Close.
func (c *holdConn) free() { c.once.Do(func() { close(c.release) }) }

// caughtBefore waits until the reply is held; an op that finished first
// (done) never sent the call and fails the test.
func (c *holdConn) caughtBefore(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case <-c.held:
	case err := <-done:
		t.Fatalf("finished (%v) without a %s reply from the owner", err, proto.OpName(c.op))
	}
}

// TestOwnTruncateRace pins the window TestOwnTruncateRemoveLowerFloor
// leaves open: a reply that carries the file's old size — a read's size
// view, a grow's acknowledgement — is held at the metadata owner's
// connection while this client's own Truncate or Remove of the path
// completes, then released. Landing late must change nothing: the next
// read below the old size asks the owner again and sees the truncate
// (0, EOF) or the remove (ErrNotExist), instead of trusting the old size
// and returning zeros. Every arm runs without and with the chunk cache.
func TestOwnTruncateRace(t *testing.T) {
	const cs, path, size = 64, "/race", 200
	for _, cfg := range []Config{{ChunkSize: cs}, {ChunkSize: cs, ReadAhead: true, CacheBytes: 1 << 20}} {
		for _, discard := range []string{"truncate", "remove"} {
			for _, arm := range []string{"read-reply", "grow-ack"} {
				name := discard + "/" + arm
				if cfg.ReadAhead {
					name = "cached/" + name
				}
				t.Run(name, func(t *testing.T) { ownTruncateRace(t, cfg, path, discard, arm, size) })
			}
		}
	}
}

func ownTruncateRace(t *testing.T, cfg Config, path, discard, arm string, size int) {
	c, _, mount := pipelineCluster(t, 2, cfg)
	owner := c.cfg.Dist.MetaTarget(path)
	hold := &holdConn{Conn: c.cfg.Conns[owner], held: make(chan struct{}), release: make(chan struct{})}
	fd, err := c.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	defer hold.free()
	data := bytes.Repeat([]byte{9}, size)
	var op func() error
	if arm == "read-reply" {
		// Another client fills the file this descriptor opened empty: a
		// read asks the owner and is told size.
		writeFileVia(t, mount(), path, data)
		hold.op = proto.OpReadChunks
		op = func() error {
			_, err := c.ReadAt(fd, make([]byte, 16), 0)
			return err
		}
	} else {
		hold.op = proto.OpUpdateSize
		op = func() error {
			_, err := c.WriteAt(fd, data, 0)
			return err
		}
	}
	c.cfg.Conns[owner] = hold
	done := make(chan error, 1)
	go func() { done <- op() }()
	hold.caughtBefore(t, done)
	var want error = io.EOF
	if discard == "truncate" {
		err = c.Truncate(path, 0)
	} else {
		err, want = c.Remove(path), proto.ErrNotExist
	}
	if err != nil {
		t.Fatal(err)
	}
	hold.free()
	if err := <-done; err != nil && err != io.EOF {
		t.Fatalf("%s racing the %s: %v", arm, discard, err)
	}
	n, err := c.ReadAt(fd, make([]byte, 100), 0)
	if n != 0 || !errors.Is(err, want) {
		t.Fatalf("read after the own %s, with the %s landing late = %d, %v; want 0, %v", discard, arm, n, err, want)
	}
}

// TestOwnGrowOutlivesLateAnswers is the other side of TestOwnTruncateRace,
// with the chunk cache holding an EOF block [0, 10) of a 10-byte file: an
// own write at 64 is acknowledged to reach 74, and a late answer must not
// take that back. Two arms hold a reply at the metadata owner's
// connection: the write's own grow acknowledgement across a Remove of
// another path (it still raises the size: the next read below 74 asks the
// owner nothing), and a read reply that says 10 across the whole write.
// Either way the next read of [0, 74) returns the write.
func TestOwnGrowOutlivesLateAnswers(t *testing.T) {
	const cs, path, size = 64, "/grown", 10
	for _, arm := range []string{"grow-ack/remove-other", "read-reply/own-grow"} {
		t.Run(arm, func(t *testing.T) {
			c, _, _ := pipelineCluster(t, 3, Config{ChunkSize: cs, CacheBytes: 1 << 20})
			writeFileVia(t, c, path, bytes.Repeat([]byte{1}, size))
			writeFileVia(t, c, "/other", []byte{2})
			fd, err := c.Open(path, O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close(fd)
			if n, err := c.ReadAt(fd, make([]byte, cs), 0); n != size || err != io.EOF {
				t.Fatalf("read caching the EOF block = %d, %v; want %d, EOF", n, err, size)
			}
			owner := c.cfg.Dist.MetaTarget(path)
			hold := &holdConn{Conn: c.cfg.Conns[owner], held: make(chan struct{}), release: make(chan struct{})}
			defer hold.free()
			c.cfg.Conns[owner] = hold
			tail := bytes.Repeat([]byte{3}, 10)
			write := func() error {
				_, err := c.WriteAt(fd, tail, cs)
				return err
			}
			done := make(chan error, 1)
			if arm == "grow-ack/remove-other" {
				hold.op = proto.OpUpdateSize
				go func() { done <- write() }()
				hold.caughtBefore(t, done)
				if err := c.Remove("/other"); err != nil {
					t.Fatal(err)
				}
				hold.free()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				probes := c.Stats().SizeProbesElided
				if n, err := c.ReadAt(fd, make([]byte, 32), 40); n != 32 || err != nil {
					t.Fatalf("read inside the grown size = %d, %v; want 32, nil", n, err)
				}
				if d := c.Stats().SizeProbesElided - probes; d != 1 {
					t.Fatalf("read inside the acknowledged grow asked the owner for the size (%d probes elided, want 1)", d)
				}
			} else {
				hold.op = proto.OpReadChunks
				go func() {
					_, err := c.ReadAt(fd, make([]byte, 16), 2*cs)
					done <- err
				}()
				hold.caughtBefore(t, done)
				if err := write(); err != nil {
					t.Fatal(err)
				}
				hold.free()
				if err := <-done; err != io.EOF {
					t.Fatalf("read past the end racing the write = %v, want EOF", err)
				}
			}
			got := make([]byte, cs+len(tail))
			if n, err := c.ReadAt(fd, got, 0); n != len(got) || (err != nil && err != io.EOF) {
				t.Fatalf("read of the write = %d, %v; want %d", n, err, len(got))
			}
			want := append(append(bytes.Repeat([]byte{1}, size), make([]byte, cs-size)...), tail...)
			if !bytes.Equal(got, want) {
				t.Fatalf("read of the write = %v, want %v", got, want)
			}
		})
	}
}

// TestCachedReadSeesAnotherClientsGrowth pins what the chunk cache does
// not relax: with nothing cached at an offset, a read there goes to the
// daemons, so another client's growth after this client's open — past
// the size the open saw — is read, not answered EOF from the open's size.
func TestCachedReadSeesAnotherClientsGrowth(t *testing.T) {
	const cs, path = 64, "/growing"
	c, _, mount := pipelineCluster(t, 3, Config{ChunkSize: cs, ReadAhead: true, CacheBytes: 1 << 20})
	fd, err := c.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	data := patternedBytes(5*cs, 11)
	writeFileVia(t, mount(), path, data[:cs])
	got := make([]byte, cs)
	if n, err := c.ReadAt(fd, got, 0); n != cs || (err != nil && err != io.EOF) || !bytes.Equal(got, data[:cs]) {
		t.Fatalf("read of a file another client filled after the open = %d, %v", n, err)
	}
	writeFileVia(t, mount(), path, data)
	if n, err := c.ReadAt(fd, got, 3*cs); n != cs || (err != nil && err != io.EOF) || !bytes.Equal(got, data[3*cs:4*cs]) {
		t.Fatalf("read past the size this client last saw, after another client grew the file = %d, %v", n, err)
	}
}

// TestSizeFloorRPCCount is the write side of TestStatFreeReadRPCCount,
// counted on the connection: what one synchronous descriptor operation
// costs, by where its byte range lies relative to the descriptor's floor
// and whether its chunk lives on the path's metadata owner. Below the
// floor an 8 KiB-style read or rewrite is exactly one RPC; the owner
// hears about rewrites once, at the barrier.
func TestSizeFloorRPCCount(t *testing.T) {
	const cs, nodes, path = 64, 4, "/data"
	c, _, _ := pipelineCluster(t, nodes, Config{ChunkSize: cs})
	log := logCalls(c)
	owner := c.cfg.Dist.MetaTarget(path)
	onOwner, offOwner := int64(-1), int64(-1)
	for id := int64(0); id < 8; id++ {
		if c.cfg.Dist.ChunkTarget(path, meta.ChunkID(id)) == owner {
			onOwner = id
		} else {
			offOwner = id
		}
	}
	if onOwner < 0 || offOwner < 0 {
		t.Fatalf("degenerate placement: onOwner=%d offOwner=%d", onOwner, offOwner)
	}
	away := c.cfg.Dist.ChunkTarget(path, meta.ChunkID(offOwner))
	const size = 8 * cs

	fd, err := c.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	log.take()
	block := bytes.Repeat([]byte{7}, 32)
	expect := func(what string, want ...string) {
		t.Helper()
		got := log.take()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: RPCs %v, want %v", what, got, want)
		}
	}
	write := func(off int64) {
		t.Helper()
		if n, err := c.WriteAt(fd, block, off); err != nil || n != len(block) {
			t.Fatalf("WriteAt(%d) = %d, %v", off, n, err)
		}
	}
	read := func(off int64, want int, wantErr error) {
		t.Helper()
		if n, err := c.ReadAt(fd, make([]byte, len(block)), off); n != want || err != wantErr {
			t.Fatalf("ReadAt(%d) = %d, %v; want %d, %v", off, n, err, want, wantErr)
		}
	}

	// The first write of a fresh file extends it: data, then size.
	write(size - 32)
	expect("extending write", call(c.cfg.Dist.ChunkTarget(path, 7), proto.OpWriteChunks), call(owner, proto.OpUpdateSize))
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	expect("Fsync with nothing deferred")

	// Everything below is inside the acknowledged size.
	write(onOwner * cs)
	expect("rewrite below the floor, chunk on the owner", call(owner, proto.OpWriteChunks))
	write(offOwner*cs + 8)
	expect("rewrite below the floor, chunk off the owner", call(away, proto.OpWriteChunks))
	read(offOwner*cs+8, 32, nil)
	expect("read below the floor, chunk off the owner", call(away, proto.OpReadChunks))
	read(onOwner*cs, 32, nil)
	expect("read below the floor, chunk on the owner", call(owner, proto.OpReadChunks))
	write(size - 32)
	expect("rewrite ending exactly at the floor", call(c.cfg.Dist.ChunkTarget(path, 7), proto.OpWriteChunks))

	if st := c.Stats(); st.SizeUpdatesElided != 3 || st.SizeProbesElided != 2 {
		t.Fatalf("stats = %+v; want 3 size updates and 2 size probes elided", st)
	}

	// One update stands for all three rewrites; a second barrier has
	// nothing left to say.
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	expect("Fsync after rewrites", call(owner, proto.OpUpdateSize))
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	expect("second Fsync")

	// Reaching past the floor takes the full protocol again: the read asks
	// for the size with its data (a probe joins when the chunk is not the
	// owner's), the write reports the new end.
	tail := c.cfg.Dist.ChunkTarget(path, 7)
	wantRead := []string{call(tail, proto.OpReadChunks)}
	if tail != owner {
		wantRead = append(wantRead, call(owner, proto.OpReadChunks))
	}
	if n, err := c.ReadAt(fd, make([]byte, 32), size-16); n != 16 || err != io.EOF {
		t.Fatalf("read across the end = %d, %v; want 16, EOF", n, err)
	}
	got := log.take() // the data RPC and the probe run in parallel
	sort.Strings(got)
	sort.Strings(wantRead)
	if fmt.Sprint(got) != fmt.Sprint(wantRead) {
		t.Fatalf("read crossing the floor: RPCs %v, want %v", got, wantRead)
	}
	write(size)
	expect("write past the floor", call(c.cfg.Dist.ChunkTarget(path, 8), proto.OpWriteChunks), call(owner, proto.OpUpdateSize))
	write(size)
	expect("the same write again", call(c.cfg.Dist.ChunkTarget(path, 8), proto.OpWriteChunks))

	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	expect("Close after a rewrite", call(owner, proto.OpUpdateSize))

	// A descriptor opened on the existing file starts with the size its
	// open learned, and one that writes nothing says nothing.
	fd, err = c.Open(path, O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	expect("open", call(owner, proto.OpStat))
	write(offOwner * cs)
	expect("rewrite through a fresh descriptor", call(away, proto.OpWriteChunks))
	read(offOwner*cs, 32, nil)
	expect("read through a fresh descriptor", call(away, proto.OpReadChunks))
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	expect("Close after a rewrite", call(owner, proto.OpUpdateSize))
	rfd, err := c.Open(path, O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	log.take()
	if err := c.Close(rfd); err != nil {
		t.Fatal(err)
	}
	expect("Close of a descriptor that wrote nothing")
}

// TestSizeFloorSecondClientView pins what another client's Stat sees of
// a writer's file, and when: the size of an extending write at once (the
// write is not acknowledged before the owner has it); a rewrite below
// the writer's floor changes nothing at the owner until the writer's
// barrier, which is when mtime moves. It also pins the window the floor
// opens the other way: the writer does not notice the second client's
// truncate until it reaches past its floor.
func TestSizeFloorSecondClientView(t *testing.T) {
	const cs, path = 64, "/shared"
	a, _, mount := pipelineCluster(t, 3, Config{ChunkSize: cs})
	b := mount()
	stat := func() FileInfo {
		t.Helper()
		fi, err := b.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	fd, err := a.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close(fd)
	data := bytes.Repeat([]byte{5}, 200)
	if _, err := a.WriteAt(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	first := stat()
	if first.Size() != 200 {
		t.Fatalf("second client sees size %d right after an extending write, want 200", first.Size())
	}
	// The next timestamp the writer takes must be distinguishable.
	for !time.Now().After(first.ModTime()) {
	}

	if _, err := a.WriteAt(fd, data[:50], 100); err != nil {
		t.Fatal(err)
	}
	if fi := stat(); fi.Size() != 200 || !fi.ModTime().Equal(first.ModTime()) {
		t.Fatalf("after a rewrite below the floor the second client sees size %d mtime %v; want 200 and the unchanged %v",
			fi.Size(), fi.ModTime(), first.ModTime())
	}
	if err := a.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if fi := stat(); fi.Size() != 200 || !fi.ModTime().After(first.ModTime()) {
		t.Fatalf("after the writer's Fsync the second client sees size %d mtime %v; want 200 and later than %v",
			fi.Size(), fi.ModTime(), first.ModTime())
	}

	// The other direction. b truncates; a's floor is still 200.
	if err := b.Truncate(path, 50); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if n, err := a.ReadAt(fd, buf, 0); n != 100 || err != nil {
		t.Fatalf("read below the writer's floor after another client's truncate = %d, %v; want the documented 100, nil", n, err)
	}
	if !bytes.Equal(buf[:50], data[:50]) || !bytes.Equal(buf[50:], make([]byte, 50)) {
		t.Fatalf("that read returned %v; want the surviving 50 bytes, then zeros", buf)
	}
	// Reaching past the floor brings the owner's size view, and with it
	// the truncate.
	if n, err := a.ReadAt(fd, make([]byte, 300), 0); n != 50 || err != io.EOF {
		t.Fatalf("read past the writer's floor = %d, %v; want 50, EOF", n, err)
	}
	if n, err := a.ReadAt(fd, buf, 0); n != 50 || err != io.EOF {
		t.Fatalf("read after the size view = %d, %v; want 50, EOF", n, err)
	}
}

// TestOwnTruncateRemoveLowerFloor is TestTruncateDropsPendingSize's
// sibling for the floor: this client's own Truncate and Remove lower it
// on every open descriptor of the path, so the next I/O past the new end
// talks to the owner again instead of trusting the old size.
func TestOwnTruncateRemoveLowerFloor(t *testing.T) {
	const cs, path = 64, "/t"
	c, _, _ := pipelineCluster(t, 2, Config{ChunkSize: cs})
	fd1, err := c.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd1)
	if _, err := c.WriteAt(fd1, bytes.Repeat([]byte{1}, 200), 0); err != nil {
		t.Fatal(err)
	}
	fd2, err := c.Open(path, O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd2)
	// A deferred rewrite candidate beyond the truncation must not grow the
	// file back at the barrier.
	if _, err := c.WriteAt(fd1, []byte{2}, 150); err != nil {
		t.Fatal(err)
	}

	if err := c.Truncate(path, 50); err != nil {
		t.Fatal(err)
	}
	for _, fd := range []int{fd1, fd2} {
		if n, err := c.ReadAt(fd, make([]byte, 100), 0); n != 50 || err != io.EOF {
			t.Fatalf("fd %d: read after own truncate = %d, %v; want 50, EOF", fd, n, err)
		}
	}
	if err := c.Fsync(fd1); err != nil {
		t.Fatal(err)
	}
	if fi, err := c.Stat(path); err != nil || fi.Size() != 50 {
		t.Fatalf("size after truncate and the writer's Fsync = %d, %v; want 50", fi.Size(), err)
	}
	// A write inside the old size but past the new one extends the file
	// and must say so.
	if _, err := c.WriteAt(fd2, bytes.Repeat([]byte{3}, 20), 100); err != nil {
		t.Fatal(err)
	}
	if fi, err := c.Stat(path); err != nil || fi.Size() != 120 {
		t.Fatalf("size after writing past the truncation = %d, %v; want 120", fi.Size(), err)
	}

	// fd1 holds a deferred rewrite when the file goes away.
	if _, err := c.WriteAt(fd1, []byte{5}, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, fd := range []int{fd1, fd2} {
		if _, err := c.ReadAt(fd, make([]byte, 10), 0); !errors.Is(err, proto.ErrNotExist) {
			t.Fatalf("fd %d: read after own remove = %v, want ErrNotExist", fd, err)
		}
	}
	log := logCalls(c)
	// Its barrier has nothing left to report, and must not bring the path
	// back as an empty file.
	if err := c.Fsync(fd1); err != nil {
		t.Fatal(err)
	}
	if got := log.take(); len(got) != 0 {
		t.Fatalf("Fsync of a descriptor whose file this client removed: RPCs %v, want none", got)
	}
	if _, err := c.Stat(path); !errors.Is(err, proto.ErrNotExist) {
		t.Fatalf("stat after remove and the writer's Fsync = %v, want ErrNotExist", err)
	}
	log.take()
	if _, err := c.WriteAt(fd2, []byte{4}, 0); err != nil {
		t.Fatal(err)
	}
	if got := log.take(); len(got) != 2 || got[1] != call(c.cfg.Dist.MetaTarget(path), proto.OpUpdateSize) {
		t.Fatalf("write after own remove: RPCs %v; want the chunk write and a size update", got)
	}
}
