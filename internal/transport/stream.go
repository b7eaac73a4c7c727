package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Wire format. Requests and responses are length-prefixed little-endian
// frames multiplexed over one stream connection by request id:
//
//	request:  [u32 rest-len][u64 reqID][u16 op][u8 dir]
//	          [u32 payloadLen][payload][u32 bulkLen][bulk][trace]
//	response: [u32 rest-len][u64 reqID][u8 status]
//	          [u32 payloadLen][payload][u32 bulkLen][bulk]
//
// The low bits of dir are the rpc.BulkDir; bulk bytes travel
// client→server only for BulkIn and server→client only for BulkOut (a
// BulkOut request advertises only the region size the server may fill).
// status 0 is success; status 1 carries a handler error message in the
// payload. A request whose dir byte has dirTraceFlag set ends in a
// [u64 trace-ID][u8 flags] trailer; the bit and trailer are absent on
// unsampled calls.
//
// One connection type and one serve loop speak these frames over two
// bulk carriers, which differ only in where the [bulk] bytes live:
//
//   - inline (TCP): [bulk] is the bytes themselves. The sender hands the
//     kernel a header/bulk iovec pair (net.Buffers, writev) and never
//     joins them; the receiver resolves the request id from the header
//     *before* the bulk arrives and reads it straight into its final
//     destination (the caller's buffer on the client, an exactly-sized
//     pooled region on the daemon). Bulk bytes cross user space at most
//     once per direction.
//   - by reference (the shm doorbell, shm.go): every request sets
//     dirRefFlag and carries [u64 segOff] in place of [bulk]; the bytes
//     sit in the window [segOff, segOff+bulkLen) of a segment both
//     processes map. A response carries only bulkLen — how much of the
//     request's window the handler filled. The client owns window
//     placement (segAlloc); the happens-before edge between a caller's
//     segment writes and the daemon's reads is the doorbell round trip.
//
// Every length field is validated without arithmetic that can wrap: a
// frame whose inner lengths disagree with its outer length, whose window
// leaves the segment, or whose dirRefFlag disagrees with the listener's
// carrier closes the connection — the stream position is unknowable
// after a corrupt prefix, so resynchronizing is impossible and dangerous.

// maxFrame guards against corrupt length prefixes: one call's largest
// transfer (rpc.MaxBulk) plus as much again for its payload and header.
const maxFrame = 2 * rpc.MaxBulk

var errFrameTooBig = errors.New("transport: frame exceeds limit")

// unsentError is the failure of a call that found its connection already
// dead: it was refused before it was registered, so not a byte of it
// reached the wire and running it again cannot run it twice. Only a
// failure that provably precedes the send gets this type — a call that
// fails mid-flight may have been executed.
type unsentError struct{ cause error }

func (e *unsentError) Error() string { return e.cause.Error() }
func (e *unsentError) Unwrap() error { return e.cause }

// ErrTimeout reports a call that outlived the dial-configured wait. The
// connection itself remains usable (the late response is drained and
// discarded).
var ErrTimeout = errors.New("transport: call timed out")

const (
	minRequestLen  = 8 + 2 + 1 + 4 // reqID + op + dir + payloadLen
	minResponseLen = 8 + 1 + 4     // reqID + status + payloadLen

	// Flag bits of the request dir byte; the true bulk direction
	// occupies the low bits (dir & dirMask).
	dirTraceFlag = 0x80 // frame ends in the trace trailer
	dirRefFlag   = 0x40 // [u64 segOff] stands in for the bulk bytes
	dirMask      = 0x3F

	traceLen = 8 + 1 // trace trailer: u64 trace-ID + u8 flags
	refLen   = 8     // by-reference bulk: u64 segOff
)

// putTrace encodes tr into a trailer.
func putTrace(b *[traceLen]byte, tr rpc.Trace) {
	binary.LittleEndian.PutUint64(b[:8], tr.ID)
	b[8] = tr.Flags
}

// getTrace decodes a trailer.
func getTrace(b []byte) rpc.Trace {
	return rpc.Trace{ID: binary.LittleEndian.Uint64(b[:8]), Flags: b[8]}
}

// readBufSize sizes the per-connection bufio.Reader. Headers and small
// payloads coalesce into one kernel read; multi-megabyte inline bulk
// regions bypass the buffer entirely (io.ReadFull into the destination).
// The TCP twin used 64 KiB and the doorbell twin 32 KiB; on
// BenchmarkTCPRoundTrip/BenchmarkShmRoundTrip (64 KiB cases, 20000x) the
// two sizes differ by less than the run-to-run spread on either carrier,
// so the one constant keeps 64 KiB — the value the inline carrier, whose
// stream also carries sub-buffer bulk, has always run with.
const readBufSize = 64 << 10

// timerPool recycles call timers. A per-RPC time.NewTimer is measurable
// garbage at millions of small metadata calls; pooled timers make the
// timeout path allocation-free.
var timerPool sync.Pool

// acquireTimer returns a running timer for d. Release with releaseTimer.
func acquireTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer stops t, drains a fire nobody consumed, and pools it. The
// caller must be the timer's only user.
func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		// Already fired: the tick is either consumed (timeout path) or
		// still buffered; drain non-blockingly so Reset starts clean.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// readSmall is io.ReadFull for the few bytes of a frame header or
// trailer. It copies out of the reader's buffer, so p does not escape:
// passed to io.ReadFull — an io.Reader call — every fixed-size header
// array of the read paths would be a heap allocation per frame.
func readSmall(br *bufio.Reader, p []byte) error {
	b, err := br.Peek(len(p))
	br.Discard(copy(p, b))
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readHead reads a frame's length prefix and then its fixed header into
// hdr. The prefix is validated before the second read blocks: a frame
// too short to hold the fixed header must fail now, not stall waiting
// for header bytes that will never come.
func readHead(br *bufio.Reader, hdr []byte) (rest uint32, err error) {
	var pfx [4]byte
	if err := readSmall(br, pfx[:]); err != nil {
		return 0, err
	}
	rest = binary.LittleEndian.Uint32(pfx[:])
	if rest > maxFrame {
		return 0, errFrameTooBig
	}
	if int(rest) < len(hdr) {
		return 0, rpc.ErrTruncated
	}
	return rest, readSmall(br, hdr)
}

// --- server side ---

// ServeTCP accepts connections on l and serves srv until l is closed.
// It returns the first accept error (net.ErrClosed after a clean stop).
func ServeTCP(l net.Listener, srv *rpc.Server) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		go serve(nc, srv, nil)
	}
}

// serve is the one serve loop: it reads request frames off nc and
// dispatches them. seg selects the carrier — nil serves inline bulk, a
// mapped segment serves by-reference windows into it.
//
// A frame for a point op (rpc.Server.RegisterPoint: ping, the single-op
// metadata handlers and the chunk reads and writes) runs right here, on
// the reader: its handler starts on this goroutine's warm stack instead
// of growing a fresh one, no goroutine or closure is made for it, its
// request struct and payload buffer serve the next frame, its bulk
// regions go back to the pool once its reply is written, and point ops
// on one connection are answered in arrival order — one at a time, so a
// frame may wait behind one point op's I/O. Every other frame — ops
// whose work grows beyond their frame or that may wait on another
// request (chunk removal and truncation, batches, directory pages,
// snapshot commit, stats) — runs on a goroutine of its own, so it never
// stalls the frames queued behind it.
//
// When the stream fails serve closes nc at once, but returns only after
// every handler finished, so a by-reference caller may unmap seg as
// soon as it returns: handlers hold slices into the mapping until their
// response is written, and a client crashing with requests in flight
// must not pull it out from under them.
func serve(nc net.Conn, srv *rpc.Server, seg []byte) {
	out := new(replyWriter)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	defer nc.Close() // LIFO: runs before the wait
	wire := srv.Wire()
	br := bufio.NewReaderSize(nc, readBufSize)
	req := new(request) // the frame being read; kept while point ops reuse it
	defer func() { req.release() }()
	for {
		if err := readRequest(br, seg, req); err != nil {
			// Clean EOF, a dead peer, or a corrupt/hostile frame: in every
			// case the stream is unrecoverable — tear the connection down
			// instead of guessing at the next frame boundary.
			return
		}
		wire.FramesIn.Add(1)
		wire.BytesIn.Add(uint64(req.size))
		if seg != nil {
			wire.ShmCalls.Add(1)
		}
		if srv.Point(req.op) {
			req.serve(nc, out, srv)
			req.releaseBulk()
			if cap(req.pbuf) > readBufSize {
				// Do not park a large payload buffer on an idle connection.
				rpc.PutBuf(req.pbuf)
				req.pbuf = nil
			}
			continue
		}
		handlers.Add(1)
		go func(req *request) {
			defer handlers.Done()
			req.serve(nc, out, srv)
			req.release()
		}(req)
		req = new(request)
	}
}

// replyWriter serializes one serve loop's response frames and keeps the
// vector they are written through.
type replyWriter struct {
	mu  sync.Mutex
	iov iovec // guarded by mu
}

// iovec is a reusable writev vector: a frame's header, the inline bulk
// that follows it — one region, or a request's gather list of windows —
// and, on a traced request, the trace trailer. A net.Buffers built per
// write escapes to the heap — an allocation per bulk frame on each end —
// so every writer keeps one, used under the mutex that serializes its
// frames.
type iovec struct {
	vec  [][]byte
	bufs net.Buffers
}

// writev sends hdr, the windows of bulk and tail (when not empty) to nc
// as one vectored write, then drops every reference the vector held, so
// it never keeps a caller's buffer or a pooled region alive past the
// write.
func (v *iovec) writev(nc net.Conn, hdr []byte, bulk [][]byte, tail []byte) error {
	v.vec = append(append(v.vec[:0], hdr), bulk...)
	if len(tail) > 0 {
		v.vec = append(v.vec, tail)
	}
	v.bufs = v.vec
	_, err := v.bufs.WriteTo(nc)
	clear(v.vec)
	v.vec, v.bufs = v.vec[:0], nil
	return err
}

// request is one decoded request. pbuf and, on the inline carrier, the
// bulk regions are pooled and owned by whoever the reader hands the
// request to (release); a request the reader serves itself keeps pbuf
// for the next frame.
type request struct {
	id      uint64
	op      rpc.Op
	tr      rpc.Trace // zero when the frame carried no trace trailer
	pbuf    []byte    // pooled backing of payload (plus the bulk-length and offset words)
	payload []byte
	bulk    serverBulk
	size    int // wire bytes consumed, length prefix included
}

// serve dispatches the request and writes its response.
func (r *request) serve(nc net.Conn, out *replyWriter, srv *rpc.Server) {
	resp, herr := srv.DispatchTrace(r.op, r.payload, r.bulk.forHandler(), r.tr)
	writeResponse(nc, out, srv.Wire(), r.id, resp, &r.bulk, herr)
}

// release returns everything the request drew from the pool.
func (r *request) release() {
	if r.pbuf != nil {
		rpc.PutBuf(r.pbuf)
	}
	r.releaseBulk()
}

// releaseBulk returns the request's inline bulk regions to the pool — a
// by-reference request's are windows of the segment, not pooled — and
// gives a gathered reply's windows back to its handler. It runs once the
// response was written, or could not be.
func (r *request) releaseBulk() {
	b := &r.bulk
	if !b.ref {
		if b.in != nil {
			rpc.PutBuf(b.in)
		}
		if b.out != nil {
			rpc.PutBuf(b.out)
		}
	}
	if b.release != nil {
		b.release()
	}
	b.in, b.out, b.gathered, b.release = nil, nil, nil, nil
	clear(b.one[:])
}

// readRequest reads one request off br into req: fixed header, then
// payload and bulk-length word (into req's payload buffer when it is
// large enough), then where the bulk lives — the bytes themselves into
// an exactly-sized pooled region (inline BulkIn), or the segment offset
// of the window holding them (by reference, seg != nil). The inner
// lengths must account for the outer length exactly; any disagreement
// is a corrupt stream. On error, whatever was drawn from the pool stays
// in req for release.
//
// By-reference windows are validated against the segment bounds but NOT
// against each other: like an RDMA peer that registers overlapping
// memory regions, a client issuing concurrent requests over overlapping
// windows gets racy reads and writes of its own segment bytes. That is
// accepted behavior — the segment is private to the one misbehaving
// connection, handlers only ever dereference memory inside the mapping,
// and daemon state (chunk files, metadata) stays consistent because
// handlers treat window contents as untrusted input; only that client's
// own data can come out scrambled. Tracking in-flight windows
// server-side would put a lock and an interval set on every call for no
// protection the client cannot already get by allocating correctly.
func readRequest(br *bufio.Reader, seg []byte, req *request) error {
	*req = request{pbuf: req.pbuf} // a frame served inline leaves its payload buffer
	var hdr [minRequestLen]byte    // id + op + dir + payloadLen
	rest, err := readHead(br, hdr[:])
	if err != nil {
		return err
	}
	dirByte := hdr[10]
	req.id = binary.LittleEndian.Uint64(hdr[0:])
	req.op = rpc.Op(binary.LittleEndian.Uint16(hdr[8:]))
	req.size = 4 + int(rest)
	bulk := &req.bulk
	bulk.dir = rpc.BulkDir(dirByte & dirMask)
	bulk.ref = dirByte&dirRefFlag != 0
	if bulk.dir > rpc.BulkOut {
		return fmt.Errorf("transport: invalid bulk direction %d", bulk.dir)
	}
	if bulk.ref != (seg != nil) {
		return errors.New("transport: by-reference flag does not match the listener's bulk carrier")
	}
	// Payload, bulk-length word and — by reference — the segment offset
	// are read in one piece; they, any inline bulk and the trace trailer
	// must account for the outer length exactly.
	words := uint64(4)
	if bulk.ref {
		words += refLen
	}
	tlen := uint64(0)
	if dirByte&dirTraceFlag != 0 {
		tlen = traceLen
	}
	plen := binary.LittleEndian.Uint32(hdr[11:])
	rem := uint64(rest - minRequestLen)
	if uint64(plen)+words+tlen > rem {
		return rpc.ErrTruncated
	}
	if n := int(uint64(plen) + words); cap(req.pbuf) >= n {
		req.pbuf = req.pbuf[:n]
	} else {
		rpc.PutBuf(req.pbuf)
		req.pbuf = rpc.GetBuf(n)
	}
	if _, err := io.ReadFull(br, req.pbuf); err != nil {
		return err
	}
	req.payload = req.pbuf[:plen]
	blen := binary.LittleEndian.Uint32(req.pbuf[plen:])
	after := rem - uint64(plen) - words // wire bytes following what pbuf holds
	switch {
	case bulk.ref:
		if after != tlen {
			return rpc.ErrTruncated
		}
		off := binary.LittleEndian.Uint64(req.pbuf[plen+4:])
		if uint64(blen) > uint64(len(seg)) || off > uint64(len(seg))-uint64(blen) {
			return fmt.Errorf("transport: bulk window [%d,+%d) outside %d-byte segment", off, blen, len(seg))
		}
		switch window := seg[off : off+uint64(blen)]; bulk.dir {
		case rpc.BulkIn:
			bulk.in = window
		case rpc.BulkOut:
			bulk.out, bulk.outLen = window, len(window)
		}
	case bulk.dir == rpc.BulkIn:
		if uint64(blen)+tlen != after {
			return rpc.ErrTruncated
		}
		bulk.in = rpc.GetBuf(int(blen))
		if _, err := io.ReadFull(br, bulk.in); err != nil {
			return err
		}
	default:
		if after != tlen {
			return rpc.ErrTruncated
		}
		if bulk.dir == rpc.BulkOut {
			// The advertised region is size-only — never materialized, so
			// a hostile budget cannot force a giant allocation; it is
			// still bounded by maxFrame because the response must carry
			// it back.
			if blen > maxFrame {
				return errFrameTooBig
			}
			bulk.outLen = int(blen)
		}
	}
	if tlen != 0 {
		var tb [traceLen]byte
		if err := readSmall(br, tb[:]); err != nil {
			return err
		}
		req.tr = getTrace(tb[:])
	}
	return nil
}

// serverBulk implements rpc.Bulk over the bulk regions of one request.
// Inline: `in` is the pooled region the BulkIn bytes were read into and
// `out` the pooled region a BulkOut handler fills (Writable) —
// writeResponse sends it as the second element of the
// response iovec, so the bytes are never re-joined into a frame — or,
// when the handler lent its reply instead (rpc.Gather), `gathered` are
// the windows writeResponse sends from where they lie, and `release`
// gives them back after the write (releaseBulk). By reference (ref):
// both regions are the client-visible segment window itself, so the
// daemon side of either direction is copy-free and nothing travels back
// but the committed length; a lent reply is copied into the window by
// rpc.Gather's fallback.
type serverBulk struct {
	dir      rpc.BulkDir
	ref      bool
	in       []byte
	out      []byte // inline: allocated at the full outLen budget on first use
	outN     int    // committed bytes; what travels back
	outLen   int
	gathered [][]byte  // inline: the lent reply, outN bytes in all
	release  func()    // inline: gives gathered back; run by releaseBulk
	one      [1][]byte // the vector of a committed out region
}

// inlineBulk is the inline carrier's view of a request's bulk: a
// serverBulk that can also send a BulkOut reply from windows the handler
// lends (rpc.Gatherer). One pointer wide, so handing it out as an
// rpc.Bulk allocates nothing.
type inlineBulk struct{ *serverBulk }

// forHandler hides the bulk object entirely when no buffer was exposed,
// so handlers can test for nil.
func (b *serverBulk) forHandler() rpc.Bulk {
	switch {
	case b.dir == rpc.BulkNone:
		return nil
	case b.ref:
		return b
	}
	return inlineBulk{b}
}

// Gather implements rpc.Gatherer: writeResponse sends the windows after
// the response header in one writev, and releaseBulk runs release after
// it.
func (b inlineBulk) Gather(windows [][]byte, release func()) error {
	if b.dir != rpc.BulkOut || b.release != nil {
		return errors.New("transport: gather without a fresh BulkOut region")
	}
	n := 0
	for _, w := range windows {
		n += len(w)
	}
	if n > b.outLen {
		return fmt.Errorf("transport: gathered reply of %d exceeds exposed %d", n, b.outLen)
	}
	b.gathered, b.release, b.outN = windows, release, n
	return nil
}

// reply is the committed BulkOut bytes as the vector that sends them.
// Caller checked outN > 0 on the inline carrier.
func (b *serverBulk) reply() [][]byte {
	if b.release != nil {
		return b.gathered
	}
	b.one[0] = b.out[:b.outN]
	return b.one[:]
}

// Len implements rpc.Bulk.
func (b *serverBulk) Len() int {
	if b.dir == rpc.BulkIn {
		return len(b.in)
	}
	return b.outLen
}

// Bytes implements rpc.Bulk: the handler reads the wire region (or the
// mapping) directly.
func (b *serverBulk) Bytes() ([]byte, error) {
	if b.dir != rpc.BulkIn {
		return nil, errors.New("transport: bytes of non-BulkIn region")
	}
	return b.in, nil
}

// Writable implements rpc.Bulk: the handler fills the outgoing region in
// place — the response writev sends it as-is, or it already is the
// client-visible mapping. The inline staging buffer is reserved at the
// full advertised budget on first use, so a later Writable of a larger n
// reuses it instead of growing it outside the pool class GetBuf handed
// out.
func (b *serverBulk) Writable(n int) ([]byte, error) {
	if b.dir != rpc.BulkOut {
		return nil, errors.New("transport: writable on non-BulkOut region")
	}
	if n > b.outLen {
		return nil, fmt.Errorf("transport: writable region of %d exceeds exposed %d", n, b.outLen)
	}
	if b.out == nil {
		b.out = rpc.GetBuf(b.outLen)
	}
	return b.out[:n], nil
}

// Commit implements rpc.Bulk.
func (b *serverBulk) Commit(n int) error {
	if b.dir != rpc.BulkOut || b.out == nil || b.release != nil {
		return errors.New("transport: commit without a writable region")
	}
	if n > len(b.out) {
		return fmt.Errorf("transport: commit of %d exceeds region %d", n, len(b.out))
	}
	b.outN = n
	return nil
}

// writeResponse sends one response: header (with payload and committed
// bulk length) plus, on the inline carrier, the committed bulk — the
// Writable region, or the windows a handler lent — after it in one
// writev: the server-side gather mirroring the client's. By-reference
// bulk is already in the client's window; only its length travels. bulk
// is borrowed; the caller still owns its release.
func writeResponse(nc net.Conn, out *replyWriter, wire *rpc.WireCounters, id uint64, payload []byte, bulk *serverBulk, herr error) {
	status := byte(0)
	pushed := bulk.outN
	if herr != nil {
		status = 1
		payload = []byte(herr.Error())
		pushed = 0
	}
	inline := 0 // bulk bytes that ride the stream
	if !bulk.ref {
		inline = pushed
	}
	rest := minResponseLen + len(payload) + 4 + inline
	if rest > maxFrame {
		// The client's read loop would reject this frame and condemn the
		// whole connection; degrade to a per-call error instead.
		status = 1
		payload = []byte(errFrameTooBig.Error())
		pushed, inline = 0, 0
		rest = minResponseLen + len(payload) + 4
	}
	hdr := rpc.GetBuf(4 + rest - inline)[:0]
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(rest))
	hdr = binary.LittleEndian.AppendUint64(hdr, id)
	hdr = append(hdr, status)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = append(hdr, payload...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(pushed))

	out.mu.Lock()
	var werr error
	if inline > 0 {
		werr = out.iov.writev(nc, hdr, bulk.reply(), nil)
		wire.VectoredWrites.Add(1)
	} else {
		_, werr = nc.Write(hdr)
	}
	if werr != nil {
		// The frame may be cut short — a dead peer, or a lent window the
		// kernel could not read (EFAULT) — and whatever followed it on
		// the stream would be read as its rest. Close the connection: the
		// serve loop's read fails, and the client fails its calls.
		nc.Close()
	}
	out.mu.Unlock()
	wire.FramesOut.Add(1)
	wire.BytesOut.Add(uint64(4 + rest))
	rpc.PutBuf(hdr)
}

// --- client side ---

// DialTCP connects to a server at addr. timeout bounds each call's wait
// for a response; zero means no limit.
func DialTCP(addr string, timeout time.Duration) (rpc.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(nc, timeout, nil), nil
}

// newConn starts a client connection over nc. seg selects the carrier:
// nil sends bulk inline; a mapped segment sends it by reference, through
// windows of seg this connection allocates.
func newConn(nc net.Conn, timeout time.Duration, seg []byte) *conn {
	c := &conn{
		nc:      nc,
		timeout: timeout,
		pending: make(map[uint64]*pendingCall),
	}
	if seg != nil {
		c.seg = seg
		c.alloc = newSegAlloc(len(seg))
		c.zombies = make(map[uint64]segSpan)
	}
	go c.readLoop()
	return c
}

// conn is the one socket-side rpc.Conn. seg, alloc and zombies are set
// only on the by-reference carrier.
type conn struct {
	nc      net.Conn
	timeout time.Duration

	seg   []byte
	alloc *segAlloc
	// segWaitHist, when set, times segment-window acquisition — how
	// long bulk calls queue for segment space. Install before traffic
	// (SetSegWaitHist).
	segWaitHist *telemetry.Histogram

	wmu sync.Mutex     // serializes request frames
	iov iovec          // guarded by wmu
	tb  [traceLen]byte // guarded by wmu; the trailer of a traced BulkIn frame

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	zombies map[uint64]segSpan // timed-out calls' still-reserved windows
	nextID  uint64
	dead    error
}

// pendingCall is one in-flight request. dest, for BulkOut calls, is the
// caller's region as a scatter list of windows (destN bytes in all): on
// the inline carrier the read loop claims the call by id as soon as the
// response header arrives and reads the bulk bytes straight into
// successive windows — the scatter half of the zero-copy wire path. win
// is the segment window a by-reference call reserved; it stays reserved
// until the call's response arrives (or the connection dies), because
// the daemon may be writing into it until then. The claim protocol (see
// abandon) guarantees neither is touched after the call returns.
type pendingCall struct {
	ch    chan result
	dest  [][]byte
	destN int
	win   segSpan
}

// callPool recycles pending calls, each with the channel it was made
// with. A call goes back only once nobody can send on its channel again:
// after its one delivery was received, or after abandon took it out of
// the pending table — either way the channel is empty.
var callPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan result, 1)} }}

// recycle returns pc to callPool, dropping its references to the
// caller's memory.
func recycle(pc *pendingCall) {
	pc.dest, pc.destN, pc.win = nil, 0, segSpan{}
	callPool.Put(pc)
}

type result struct {
	payload []byte
	bulkN   int // bulk bytes the server produced
	err     error
}

// SetSegWaitHist installs the histogram timing segment-window
// acquisition. Call before the connection serves traffic; nil leaves
// timing disabled. It never fires on the inline carrier.
func (c *conn) SetSegWaitHist(h *telemetry.Histogram) { c.segWaitHist = h }

// Call implements rpc.Conn.
func (c *conn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	return c.CallVector(op, payload, rpc.Region(bulk), dir, rpc.Trace{})
}

// CallVector implements rpc.Vectored; it is the connection's one entry
// point. It sets the call's region up once — BulkIn windows for start to
// send inline from where they lie or copy into a segment window, BulkOut
// windows for the read loop (inline) or settle (by reference) to fill in
// order — then runs start and await.
func (c *conn) CallVector(op rpc.Op, payload []byte, bulk [][]byte, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	pc := callPool.Get().(*pendingCall)
	n := 0
	for _, w := range bulk {
		n += len(w)
	}
	var in [][]byte
	switch {
	case len(bulk) == 0:
		dir = rpc.BulkNone
	case dir == rpc.BulkIn:
		in = bulk
	case dir == rpc.BulkOut:
		pc.dest, pc.destN = bulk, n
	}
	id, err := c.start(pc, op, payload, in, n, dir, tr)
	if err != nil {
		return nil, err
	}
	return c.await(pc, id, op)
}

// start is the first half of every call: reserve a segment window and,
// for BulkIn, copy the bytes into it (by reference) → register → write
// the frame. in is the BulkIn windows (nil otherwise) and n the size of
// the region the call exposes in either direction. A nil error means the
// call is registered under the returned id and on the wire, and await
// owes it its reply; on error the call is over — delivered to or
// abandoned — and pc is recycled. Either way nothing of the transport
// references in any more.
func (c *conn) start(pc *pendingCall, op rpc.Op, payload []byte, in [][]byte, n int, dir rpc.BulkDir, tr rpc.Trace) (uint64, error) {
	if c.seg != nil && dir != rpc.BulkNone {
		// By reference: reserve a window and, for BulkIn, stage the bytes
		// in it — the one copy this direction costs.
		var t0 time.Time
		if c.segWaitHist != nil {
			t0 = time.Now()
		}
		off, err := c.alloc.acquire(n, c.timeout)
		if c.segWaitHist != nil {
			c.segWaitHist.ObserveSince(t0)
		}
		if err != nil {
			recycle(pc)
			return 0, err
		}
		pc.win = segSpan{off, n}
		win := c.seg[off : off+n]
		for _, w := range in {
			win = win[copy(win, w):]
		}
	}
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		if pc.win.n > 0 {
			c.alloc.release(pc.win.off, pc.win.n)
		}
		recycle(pc)
		return 0, &unsentError{err}
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = pc
	c.mu.Unlock()

	// Gather on TX: everything but inline bulk goes out as one pooled
	// buffer; inline BulkIn bytes follow straight from the caller's
	// windows — they are never copied into a frame — and a sampled trace,
	// which must stay the frame's last bytes, after them. The vector and
	// the trailer's bytes are the connection's.
	hdr := c.buildRequest(id, op, dir, payload, n, pc.win.off, tr)
	c.wmu.Lock()
	var err error
	switch {
	case c.seg != nil || dir != rpc.BulkIn || n == 0:
		_, err = c.nc.Write(hdr)
	case tr.Sampled():
		putTrace(&c.tb, tr)
		err = c.iov.writev(c.nc, hdr, in, c.tb[:])
	default:
		err = c.iov.writev(c.nc, hdr, in, nil)
	}
	c.wmu.Unlock()
	rpc.PutBuf(hdr)
	if err != nil {
		if !c.abandon(id) {
			// The read loop claimed the call between our failed write and
			// now (a racing response or connection failure); its delivery
			// is guaranteed, so wait it out before touching dest again.
			c.settle(pc, <-pc.ch)
		}
		recycle(pc)
		return 0, err
	}
	return id, nil
}

// await is the second half of every call: wait for the delivery of call
// id (op) or time out → settle. Every return follows the call's delivery
// or its abandon, so pc is recycled on the way out.
func (c *conn) await(pc *pendingCall, id uint64, op rpc.Op) ([]byte, error) {
	defer recycle(pc)
	var timeoutCh <-chan time.Time
	var timer *time.Timer
	if c.timeout > 0 {
		timer = acquireTimer(c.timeout)
		timeoutCh = timer.C
	}
	select {
	case res := <-pc.ch:
		if timer != nil {
			releaseTimer(timer)
		}
		return c.settle(pc, res)
	case <-timeoutCh:
		if c.abandon(id) {
			releaseTimer(timer)
			return nil, fmt.Errorf("%w: call %d op %d after %v", ErrTimeout, id, op, c.timeout)
		}
		// Too late to time out: the read loop already claimed this call
		// and may be scattering bulk bytes into our dest buffer right
		// now. Returning would hand the caller a buffer the transport is
		// still writing — wait for the delivery instead.
		res := <-pc.ch
		releaseTimer(timer)
		return c.settle(pc, res)
	}
}

// settle completes a delivered call. A successful BulkOut call leaves
// every byte of every window defined: inline bulk is already in place, a
// by-reference call copies its bytes out of the segment window — the one
// copy that direction costs — and the carrier, which alone knows how many
// bytes it delivered, clears only what lies past them. The segment
// window returns to the allocator.
func (c *conn) settle(pc *pendingCall, res result) ([]byte, error) {
	if res.err == nil && pc.destN > 0 {
		var src []byte
		if pc.win.n > 0 {
			src = c.seg[pc.win.off:][:res.bulkN]
		}
		finish(pc.dest, src, res.bulkN)
	}
	if pc.win.n > 0 {
		c.alloc.release(pc.win.off, pc.win.n)
	}
	return res.payload, res.err
}

// finish completes a scatter list whose first n bytes are the server's:
// they are copied from src when they arrived by reference (src nil means
// they are already in place) and every byte past them is cleared.
func finish(dest [][]byte, src []byte, n int) {
	for _, w := range dest {
		m := min(len(w), n)
		if src != nil {
			copy(w[:m], src)
			src = src[m:]
		}
		clear(w[m:])
		n -= m
	}
}

// abandon is the single site that gives up on a registered call (failed
// write, timeout). It removes the call from the pending table and parks
// a by-reference window with the zombies — the daemon may still be
// writing it; the late response or connection death releases it. It
// returns false when the read loop already claimed the id: the caller
// must then wait on the call's channel, because a claimed call always
// gets a delivery and its dest buffer and window are in use until it
// arrives.
func (c *conn) abandon(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	pc, ok := c.pending[id]
	if !ok {
		return false
	}
	delete(c.pending, id)
	if pc.win.n > 0 {
		c.zombies[id] = pc.win
	}
	return true
}

// Close implements rpc.Conn. A segment mapping is deliberately left in
// place: concurrent callers may still be copying out of their windows,
// and the unlinked file's pages vanish with the process anyway.
func (c *conn) Close() error { return c.nc.Close() }

// readLoop demultiplexes responses until the stream fails.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, readBufSize)
	for {
		if err := c.readResponse(br); err != nil {
			c.fail(err)
			return
		}
	}
}

// readResponse reads one response frame and delivers it. Scatter on RX:
// the fixed header and payload are read first, the request id is
// resolved to its pending call — the single claim site — *before* any
// inline bulk bytes arrive, and those are then read directly into the
// waiting caller's destination buffer. A late response (timed-out call)
// has no destination: inline bulk is discarded from the stream to keep
// it framed, and a by-reference window, finally quiescent, returns to
// the allocator. A non-nil error means the stream is unusable; a call
// this frame claimed has been delivered to regardless.
func (c *conn) readResponse(br *bufio.Reader) error {
	var hdr [minResponseLen]byte // id + status + payloadLen
	rest, err := readHead(br, hdr[:])
	if err != nil {
		return err
	}
	id := binary.LittleEndian.Uint64(hdr[0:])
	status := hdr[8]
	plen := binary.LittleEndian.Uint32(hdr[9:])
	rem := uint64(rest - minResponseLen)
	if uint64(plen)+4 > rem {
		return rpc.ErrTruncated
	}
	pbuf := rpc.GetBuf(int(plen) + 4)
	defer rpc.PutBuf(pbuf)
	if _, err := io.ReadFull(br, pbuf); err != nil {
		return err
	}
	blen := binary.LittleEndian.Uint32(pbuf[plen:])
	inline := int64(blen) // bulk bytes that follow on the stream
	if c.seg != nil {
		inline = 0
	}
	if uint64(inline) != rem-uint64(plen)-4 {
		return rpc.ErrTruncated
	}

	c.mu.Lock()
	pc, ok := c.pending[id]
	delete(c.pending, id)
	z, zok := c.zombies[id]
	delete(c.zombies, id)
	c.mu.Unlock()
	if zok {
		c.alloc.release(z.off, z.n)
	}
	if !ok || status != 0 {
		if ok {
			pc.ch <- result{err: &rpc.RemoteError{Msg: string(pbuf[:plen])}}
		}
		_, err := io.CopyN(io.Discard, br, inline)
		return err
	}
	if int64(blen) > int64(pc.destN) {
		// The server pushed past the region we exposed; trusting the
		// stream further would scribble out of bounds.
		err := fmt.Errorf("transport: response bulk %d exceeds exposed region %d", blen, pc.destN)
		pc.ch <- result{err: err}
		return err
	}
	for _, w := range pc.dest {
		if inline == 0 {
			break
		}
		w = w[:min(int64(len(w)), inline)]
		if _, err := io.ReadFull(br, w); err != nil {
			pc.ch <- result{err: err}
			return err
		}
		inline -= int64(len(w))
	}
	// The payload escapes to the caller; copy it off the pooled buffer.
	pc.ch <- result{payload: append([]byte(nil), pbuf[:plen]...), bulkN: int(blen)}
	return nil
}

// fail marks the connection dead and delivers the failure to every still
// pending call (a by-reference call releases its own window on
// delivery); calls the read loop already claimed were delivered to
// directly and are no longer in the table. Zombie windows are freed and
// the allocator poisoned so blocked acquirers error out. Sending under
// mu cannot block: every call's channel is buffered and leaving the
// table entitles it to exactly one send.
func (c *conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead == nil {
		c.dead = fmt.Errorf("transport: connection failed: %w", err)
	}
	for id, pc := range c.pending {
		pc.ch <- result{err: c.dead}
		delete(c.pending, id)
	}
	for id, z := range c.zombies {
		c.alloc.release(z.off, z.n)
		delete(c.zombies, id)
	}
	if c.alloc != nil {
		// An acquirer waits for its window before its call is registered.
		c.alloc.poison(&unsentError{c.dead})
	}
}

// buildRequest assembles everything of a request frame that is not
// inline bulk — length prefix, fixed fields, payload, bulk length, then
// the segment offset (by reference) — in a pooled buffer; the caller
// releases it with rpc.PutBuf after writing it out. A sampled trace
// extends the frame by traceLen trailing bytes, appended here unless
// inline BulkIn bytes will separate them from the header (the caller
// then sends the trailer as its own iovec after the bulk).
func (c *conn) buildRequest(id uint64, op rpc.Op, dir rpc.BulkDir, payload []byte, bulkLen, segOff int, tr rpc.Trace) []byte {
	dirByte := byte(dir)
	inline, ref, tlen := 0, 0, 0
	if dir == rpc.BulkNone {
		bulkLen = 0
	}
	if c.seg != nil {
		dirByte |= dirRefFlag
		ref = refLen
	} else if dir == rpc.BulkIn {
		inline = bulkLen
	}
	if tr.Sampled() {
		dirByte |= dirTraceFlag
		tlen = traceLen
	}
	rest := minRequestLen + len(payload) + 4 + ref + inline + tlen
	trInline := tlen
	if inline > 0 {
		trInline = 0 // trailer travels after the bulk iovec
	}
	out := rpc.GetBuf(4 + rest - inline - (tlen - trInline))[:0]
	out = binary.LittleEndian.AppendUint32(out, uint32(rest))
	out = binary.LittleEndian.AppendUint64(out, id)
	out = binary.LittleEndian.AppendUint16(out, uint16(op))
	out = append(out, dirByte)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, uint32(bulkLen))
	if ref != 0 {
		out = binary.LittleEndian.AppendUint64(out, uint64(segOff))
	}
	if trInline != 0 {
		var tb [traceLen]byte
		putTrace(&tb, tr)
		out = append(out, tb[:]...)
	}
	return out
}
