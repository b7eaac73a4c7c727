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

// maxFrame guards against corrupt length prefixes (64 MiB transfer + slack).
const maxFrame = 128 << 20

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

// readHead reads a frame's length prefix and then its fixed header into
// hdr. The prefix is validated before the second read blocks: a frame
// too short to hold the fixed header must fail now, not stall waiting
// for header bytes that will never come.
func readHead(br *bufio.Reader, hdr []byte) (rest uint32, err error) {
	var pfx [4]byte
	if _, err := io.ReadFull(br, pfx[:]); err != nil {
		return 0, err
	}
	rest = binary.LittleEndian.Uint32(pfx[:])
	if rest > maxFrame {
		return 0, errFrameTooBig
	}
	if int(rest) < len(hdr) {
		return 0, rpc.ErrTruncated
	}
	_, err = io.ReadFull(br, hdr)
	return rest, err
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

// serve is the one serve loop: it reads request frames off nc and runs
// each on its own goroutine. seg selects the carrier — nil serves inline
// bulk, a mapped segment serves by-reference windows into it. When the
// stream fails serve closes nc at once, but returns only after every
// handler finished, so a by-reference caller may unmap seg as soon as it
// returns: handlers hold slices into the mapping until their response is
// written, and a client crashing with requests in flight must not pull
// it out from under them.
func serve(nc net.Conn, srv *rpc.Server, seg []byte) {
	var wmu sync.Mutex // serializes response frames
	var handlers sync.WaitGroup
	defer handlers.Wait()
	defer nc.Close() // LIFO: runs before the wait
	wire := srv.Wire()
	br := bufio.NewReaderSize(nc, readBufSize)
	for {
		req, err := readRequest(br, seg)
		if err != nil {
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
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			resp, herr := srv.DispatchTrace(req.op, req.payload, req.bulk.forHandler(), req.tr)
			writeResponse(nc, &wmu, wire, req.id, resp, &req.bulk, herr)
			req.release()
		}()
	}
}

// request is one decoded request. pbuf and, on the inline carrier, the
// bulk regions are pooled and owned by whoever the reader hands the
// request to (release).
type request struct {
	id      uint64
	op      rpc.Op
	tr      rpc.Trace // zero when the frame carried no trace trailer
	pbuf    []byte    // pooled backing of payload (plus the bulk-length and offset words)
	payload []byte
	bulk    serverBulk
	size    int // wire bytes consumed, length prefix included
}

func (r *request) release() {
	if r.pbuf != nil {
		rpc.PutBuf(r.pbuf)
	}
	if r.bulk.ref {
		return // windows of the segment, not pooled
	}
	if r.bulk.in != nil {
		rpc.PutBuf(r.bulk.in)
	}
	if r.bulk.out != nil {
		rpc.PutBuf(r.bulk.out)
	}
}

// readRequest reads one request off br: fixed header, then payload and
// bulk-length word, then where the bulk lives — the bytes themselves
// into an exactly-sized pooled region (inline BulkIn), or the segment
// offset of the window holding them (by reference, seg != nil). The
// inner lengths must account for the outer length exactly; any
// disagreement is a corrupt stream.
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
func readRequest(br *bufio.Reader, seg []byte) (req *request, err error) {
	req = &request{}
	defer func() {
		if err != nil {
			req.release()
			req = nil
		}
	}()
	var hdr [minRequestLen]byte // id + op + dir + payloadLen
	rest, err := readHead(br, hdr[:])
	if err != nil {
		return req, err
	}
	dirByte := hdr[10]
	req.id = binary.LittleEndian.Uint64(hdr[0:])
	req.op = rpc.Op(binary.LittleEndian.Uint16(hdr[8:]))
	req.size = 4 + int(rest)
	bulk := &req.bulk
	bulk.dir = rpc.BulkDir(dirByte & dirMask)
	bulk.ref = dirByte&dirRefFlag != 0
	if bulk.dir > rpc.BulkOut {
		return req, fmt.Errorf("transport: invalid bulk direction %d", bulk.dir)
	}
	if bulk.ref != (seg != nil) {
		return req, errors.New("transport: by-reference flag does not match the listener's bulk carrier")
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
		return req, rpc.ErrTruncated
	}
	req.pbuf = rpc.GetBuf(int(uint64(plen) + words))
	if _, err := io.ReadFull(br, req.pbuf); err != nil {
		return req, err
	}
	req.payload = req.pbuf[:plen]
	blen := binary.LittleEndian.Uint32(req.pbuf[plen:])
	after := rem - uint64(plen) - words // wire bytes following what pbuf holds
	switch {
	case bulk.ref:
		if after != tlen {
			return req, rpc.ErrTruncated
		}
		off := binary.LittleEndian.Uint64(req.pbuf[plen+4:])
		if uint64(blen) > uint64(len(seg)) || off > uint64(len(seg))-uint64(blen) {
			return req, fmt.Errorf("transport: bulk window [%d,+%d) outside %d-byte segment", off, blen, len(seg))
		}
		switch window := seg[off : off+uint64(blen)]; bulk.dir {
		case rpc.BulkIn:
			bulk.in = window
		case rpc.BulkOut:
			bulk.out, bulk.outLen = window, len(window)
		}
	case bulk.dir == rpc.BulkIn:
		if uint64(blen)+tlen != after {
			return req, rpc.ErrTruncated
		}
		bulk.in = rpc.GetBuf(int(blen))
		if _, err := io.ReadFull(br, bulk.in); err != nil {
			return req, err
		}
	default:
		if after != tlen {
			return req, rpc.ErrTruncated
		}
		if bulk.dir == rpc.BulkOut {
			// The advertised region is size-only — never materialized, so
			// a hostile budget cannot force a giant allocation; it is
			// still bounded by maxFrame because the response must carry
			// it back.
			if blen > maxFrame {
				return req, errFrameTooBig
			}
			bulk.outLen = int(blen)
		}
	}
	if tlen != 0 {
		var tb [traceLen]byte
		if _, err := io.ReadFull(br, tb[:]); err != nil {
			return req, err
		}
		req.tr = getTrace(tb[:])
	}
	return req, nil
}

// serverBulk implements rpc.Bulk over the bulk regions of one request.
// Inline: `in` is the pooled region the BulkIn bytes were read into and
// `out` the pooled region a BulkOut handler fills (Writable) or copies
// into (Push) — writeResponse sends it as the second element of the
// response iovec, so the bytes are never re-joined into a frame. By
// reference (ref): both are the client-visible segment window itself, so
// the daemon side of either direction is copy-free and nothing travels
// back but the committed length.
type serverBulk struct {
	dir    rpc.BulkDir
	ref    bool
	in     []byte
	out    []byte // inline: allocated at the full outLen budget on first use
	outN   int    // committed bytes; what travels back
	outLen int
}

// forHandler hides the bulk object entirely when no buffer was exposed,
// so handlers can test for nil.
func (b *serverBulk) forHandler() rpc.Bulk {
	if b.dir == rpc.BulkNone {
		return nil
	}
	return b
}

// region returns the outgoing region. The inline staging buffer is
// reserved at the full advertised budget once: repeated pushes
// previously appended past the first push's capacity, growing the slice
// outside its pool class so a later PutBuf recycled a buffer no GetBuf
// class owns.
func (b *serverBulk) region() []byte {
	if b.out == nil {
		b.out = rpc.GetBuf(b.outLen)
	}
	return b.out
}

// Pull implements rpc.Bulk.
func (b *serverBulk) Pull(p []byte) error {
	if b.dir != rpc.BulkIn {
		return errors.New("transport: pull from non-BulkIn region")
	}
	if len(p) > len(b.in) {
		return fmt.Errorf("transport: bulk pull of %d exceeds exposed %d", len(p), len(b.in))
	}
	copy(p, b.in)
	return nil
}

// Push implements rpc.Bulk.
func (b *serverBulk) Push(p []byte) error {
	if b.dir != rpc.BulkOut {
		return errors.New("transport: push into non-BulkOut region")
	}
	if len(p) > b.outLen {
		return fmt.Errorf("transport: bulk push of %d exceeds exposed %d", len(p), b.outLen)
	}
	b.outN = copy(b.region(), p)
	return nil
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
// client-visible mapping.
func (b *serverBulk) Writable(n int) ([]byte, error) {
	if b.dir != rpc.BulkOut {
		return nil, errors.New("transport: writable on non-BulkOut region")
	}
	if n > b.outLen {
		return nil, fmt.Errorf("transport: writable region of %d exceeds exposed %d", n, b.outLen)
	}
	return b.region()[:n], nil
}

// Commit implements rpc.Bulk.
func (b *serverBulk) Commit(n int) error {
	if b.dir != rpc.BulkOut || b.out == nil {
		return errors.New("transport: commit without a writable region")
	}
	if n > len(b.out) {
		return fmt.Errorf("transport: commit of %d exceeds region %d", n, len(b.out))
	}
	b.outN = n
	return nil
}

// writeResponse sends one response: header (with payload and committed
// bulk length) plus, on the inline carrier, the committed bulk region as
// the second element of a writev — the server-side gather mirroring the
// client's. By-reference bulk is already in the client's window; only
// its length travels. bulk is borrowed; the caller still owns its
// release.
func writeResponse(nc net.Conn, wmu *sync.Mutex, wire *rpc.WireCounters, id uint64, payload []byte, bulk *serverBulk, herr error) {
	status := byte(0)
	pushed := bulk.outN
	if herr != nil {
		status = 1
		payload = []byte(herr.Error())
		pushed = 0
	}
	var inline []byte // bulk bytes that ride the stream
	if !bulk.ref && pushed > 0 {
		inline = bulk.out[:pushed]
	}
	rest := minResponseLen + len(payload) + 4 + len(inline)
	if rest > maxFrame {
		// The client's read loop would reject this frame and condemn the
		// whole connection; degrade to a per-call error instead.
		status = 1
		payload = []byte(errFrameTooBig.Error())
		pushed, inline = 0, nil
		rest = minResponseLen + len(payload) + 4
	}
	hdr := rpc.GetBuf(4 + rest - len(inline))[:0]
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(rest))
	hdr = binary.LittleEndian.AppendUint64(hdr, id)
	hdr = append(hdr, status)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = append(hdr, payload...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(pushed))

	wmu.Lock()
	// A write error tears down the connection via the read side.
	if len(inline) > 0 {
		bufs := net.Buffers{hdr, inline}
		_, _ = bufs.WriteTo(nc)
		wire.VectoredWrites.Add(1)
	} else {
		_, _ = nc.Write(hdr)
	}
	wmu.Unlock()
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

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	zombies map[uint64]segSpan // timed-out calls' still-reserved windows
	nextID  uint64
	dead    error
}

// pendingCall is one in-flight request. dest, for BulkOut calls, is the
// caller's region as a scatter list of windows (destN bytes in all; one
// backs the list of a contiguous region): on the inline carrier the read
// loop claims the call by id as soon as the response header arrives and
// reads the bulk bytes straight into successive windows — the scatter
// half of the zero-copy wire path. win is the segment window a
// by-reference call reserved; it stays reserved until the call's response
// arrives (or the connection dies), because the daemon may be writing
// into it until then. The claim protocol (see abandon) guarantees neither
// is touched after the call returns.
type pendingCall struct {
	ch    chan result
	dest  [][]byte
	destN int
	one   [1][]byte
	win   segSpan
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
	return c.CallTrace(op, payload, bulk, dir, rpc.Trace{})
}

// CallTrace implements rpc.TraceCaller. The frame carries tr in the
// trailing trace extension when sampled.
func (c *conn) CallTrace(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	pc := &pendingCall{ch: make(chan result, 1)}
	var in []byte
	switch {
	case bulk == nil:
		dir = rpc.BulkNone
	case dir == rpc.BulkIn:
		in = bulk
	case dir == rpc.BulkOut:
		pc.one[0] = bulk
		pc.dest, pc.destN = pc.one[:], len(bulk)
	}
	return c.call(pc, op, payload, in, len(bulk), dir, tr)
}

// CallScatter implements rpc.ScatterCaller: a BulkOut call whose region
// is the windows of dest, filled in order.
func (c *conn) CallScatter(op rpc.Op, payload []byte, dest [][]byte, tr rpc.Trace) ([]byte, error) {
	pc := &pendingCall{ch: make(chan result, 1), dest: dest}
	for _, w := range dest {
		pc.destN += len(w)
	}
	dir := rpc.BulkOut
	if len(dest) == 0 {
		dir = rpc.BulkNone
	}
	return c.call(pc, op, payload, nil, pc.destN, dir, tr)
}

// call runs one registered call: register → write → wait or time out →
// settle. in is the BulkIn bytes (nil otherwise) and n the size of the
// region the call exposes in either direction.
func (c *conn) call(pc *pendingCall, op rpc.Op, payload, in []byte, n int, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
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
			return nil, err
		}
		pc.win = segSpan{off, n}
		copy(c.seg[off:], in)
	}
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		if pc.win.n > 0 {
			c.alloc.release(pc.win.off, pc.win.n)
		}
		return nil, &unsentError{err}
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = pc
	c.mu.Unlock()

	// Gather on TX: everything but inline bulk goes out as one pooled
	// buffer; inline BulkIn bytes follow straight from the caller's
	// buffer as the second iovec — they are never copied into a frame —
	// and a sampled trace, which must stay the frame's last bytes, as the
	// third.
	hdr := c.buildRequest(id, op, dir, payload, n, pc.win.off, tr)
	c.wmu.Lock()
	var err error
	if c.seg == nil && len(in) > 0 {
		if tr.Sampled() {
			var tb [traceLen]byte
			putTrace(&tb, tr)
			bufs := net.Buffers{hdr, in, tb[:]}
			_, err = bufs.WriteTo(c.nc)
		} else {
			bufs := net.Buffers{hdr, in}
			_, err = bufs.WriteTo(c.nc)
		}
	} else {
		_, err = c.nc.Write(hdr)
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
		return nil, err
	}

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
