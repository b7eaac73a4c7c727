//go:build unix

package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"syscall"
	"time"

	"repro/internal/rpc"
)

// Shared-memory fast path for co-located clients — the transport tier's
// answer to the paper's node-local IPC case, which the hash distributor
// already makes common (1/N of every client's traffic targets its own
// node). A Unix-domain socket is the doorbell: it carries the one-time
// segment handshake below and then the ordinary stream frames (stream.go)
// on the by-reference carrier, so only headers ever cross it. Bulk bytes
// live in a file-backed mmap'd segment both processes map: a chunk write
// is one copy (caller's buffer → segment, then the daemon pwrites
// straight from the mapping) and a chunk read is one copy (the daemon
// preads straight into the mapping, then segment → caller's buffer). No
// kernel socket copies, no frame joins, no per-byte syscall work.
//
// Handshake (once per accepted connection):
//
//	hello  (daemon→client): [u32 rest][u64 segBytes][segment path]
//	ack    (client→daemon): [u8 0x5A] after mapping succeeds
//
// The daemon creates the segment file (preferring the tmpfs at
// /dev/shm), maps it, and unlinks it as soon as the client acks — the
// segment then lives exactly as long as the two mappings and nothing
// else can attach to it. Crash safety comes from the socket: either side
// dying closes it, which fails every pending call cleanly.

const (
	// DefaultShmSegBytes sizes the per-connection segment when ServeShm
	// is given no explicit size. The file is sparse and pages materialize
	// only where bulk traffic actually lands, so the cost of a generous
	// default is virtual address space, not memory.
	DefaultShmSegBytes = 256 << 20

	shmAck = 0x5A
)

// ServeShm accepts co-located clients on l — a Unix-domain socket
// listener — and serves srv until l is closed, one mapped segment of
// segBytes per connection (<= 0 selects DefaultShmSegBytes). It returns
// the first accept error (net.ErrClosed after a clean stop).
func ServeShm(l net.Listener, srv *rpc.Server, segBytes int) error {
	if segBytes <= 0 {
		segBytes = DefaultShmSegBytes
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveShmConn(conn, srv, segBytes)
	}
}

// mapSegment maps n bytes of f shared and closes f.
func mapSegment(f *os.File, n int) ([]byte, error) {
	seg, err := syscall.Mmap(int(f.Fd()), 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	return seg, err
}

// createShmSegment creates, sizes and maps a fresh segment file,
// preferring the tmpfs at /dev/shm so pages never hit a disk.
func createShmSegment(n int) (seg []byte, path string, err error) {
	dir := "/dev/shm"
	if st, serr := os.Stat(dir); serr != nil || !st.IsDir() {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "gkfs-shm-*")
	if err != nil {
		return nil, "", err
	}
	path = f.Name()
	if err := f.Truncate(int64(n)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, "", err
	}
	if seg, err = mapSegment(f, n); err != nil {
		os.Remove(path)
		return nil, "", err
	}
	return seg, path, nil
}

// serveShmConn performs the daemon half of the handshake and hands the
// doorbell to the shared serve loop. serve returns only once every
// handler is done with its window, so the deferred unmap is safe.
func serveShmConn(conn net.Conn, srv *rpc.Server, segBytes int) {
	defer conn.Close()
	seg, path, err := createShmSegment(segBytes)
	if err != nil {
		return
	}
	defer syscall.Munmap(seg)
	defer os.Remove(path) // no-op once the post-ack unlink below ran
	if err := writeShmHello(conn, path, segBytes); err != nil {
		return
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != shmAck {
		return
	}
	os.Remove(path) // the client holds its own mapping; nothing else may attach
	serve(conn, srv, seg)
}

func writeShmHello(conn net.Conn, path string, segBytes int) error {
	rest := 8 + len(path)
	buf := make([]byte, 0, 4+rest)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rest))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(segBytes))
	buf = append(buf, path...)
	_, err := conn.Write(buf)
	return err
}

func readShmHello(conn net.Conn) (segPath string, segBytes int, err error) {
	var lb [4]byte
	if _, err := io.ReadFull(conn, lb[:]); err != nil {
		return "", 0, err
	}
	rest := binary.LittleEndian.Uint32(lb[:])
	if rest < 8 || rest > 4096 {
		return "", 0, fmt.Errorf("transport: implausible shm hello length %d", rest)
	}
	buf := make([]byte, rest) //gkfs:bounded
	if _, err := io.ReadFull(conn, buf); err != nil {
		return "", 0, err
	}
	size := binary.LittleEndian.Uint64(buf)
	// The int conversion below must not truncate: on 32-bit unix
	// platforms int is 32 bits, so a size that only fits in int64 would
	// wrap or go negative and the client would mmap against a bogus
	// length instead of rejecting the hello.
	if size == 0 || size > 1<<40 || size > uint64(math.MaxInt) {
		return "", 0, fmt.Errorf("transport: implausible shm segment size %d", size)
	}
	return string(buf[8:]), int(size), nil
}

// DialShm connects to a co-located daemon's shared-memory doorbell at
// path (a Unix-domain socket) and maps the segment it offers. timeout
// bounds each call's wait for a response; zero means no limit.
func DialShm(path string, timeout time.Duration) (rpc.Conn, error) {
	conn, err := net.Dial("unix", path)
	if err != nil {
		return nil, err
	}
	segPath, segBytes, err := readShmHello(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: shm handshake: %w", err)
	}
	f, err := os.OpenFile(segPath, os.O_RDWR, 0)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: shm segment: %w", err)
	}
	seg, err := mapSegment(f, segBytes)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: shm mmap: %w", err)
	}
	if _, err := conn.Write([]byte{shmAck}); err != nil {
		syscall.Munmap(seg)
		conn.Close()
		return nil, err
	}
	return newConn(conn, timeout, seg), nil
}

// DialShmPool wraps DialShm connections in a pool, giving the
// shared-memory path the same lazy reconnect-on-failure behaviour as
// DialTCPPool. The doorbell carries only headers, so a single connection
// already serves concurrent callers; extra slots mean extra segments.
func DialShmPool(path string, timeout time.Duration, n int) (rpc.Conn, error) {
	return dialPool(n, func() (rpc.Conn, error) { return DialShm(path, timeout) })
}
