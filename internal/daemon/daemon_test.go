package daemon

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

func newTestDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := New(Config{ID: 3, FS: vfs.NewMem(), ChunkSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// call dispatches directly against the daemon's server, decoding the
// errno header like the client does.
func call(t *testing.T, d *Daemon, op rpc.Op, payload, bulk []byte) (*rpc.Dec, error) {
	t.Helper()
	var b rpc.Bulk
	if bulk != nil {
		b = rpc.SliceBulk(bulk)
	}
	resp, err := d.Server().Dispatch(op, payload, b)
	if err != nil {
		return nil, err
	}
	dec := rpc.NewDec(resp)
	if errno := proto.Errno(dec.U16()); errno != proto.OK {
		return nil, errno.Err()
	}
	return dec, nil
}

func encPath(path string) []byte {
	e := rpc.NewEnc(len(path) + 5)
	e.Str(path)
	return e.Bytes()
}

func encCreate(path string, mode meta.Mode) []byte {
	e := rpc.NewEnc(len(path) + 16)
	e.Str(path).U8(uint8(mode)).I64(time.Now().UnixNano())
	return e.Bytes()
}

func encRemove(path string, flags uint8) []byte {
	e := rpc.NewEnc(len(path) + 8)
	e.Str(path).U8(flags)
	return e.Bytes()
}

func encReadDir(dir, after string, limit uint32) []byte {
	e := rpc.NewEnc(len(dir) + len(after) + 12)
	e.Str(dir).Str(after).U32(limit)
	return e.Bytes()
}

// TestStatAndReadDirRefuseTrailingBytes pins the one request shape: a
// stat request ends with its path and a readdir request with its page
// limit, so a request with a byte after that is malformed.
func TestStatAndReadDirRefuseTrailingBytes(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	for op, req := range map[rpc.Op][]byte{
		proto.OpStat:    encPath("/f"),
		proto.OpReadDir: encReadDir("/", "", 0),
	} {
		if _, err := call(t, d, op, req, nil); err != nil {
			t.Fatalf("op %d: well-formed request: %v", op, err)
		}
		if _, err := call(t, d, op, append(req, 0), nil); err == nil {
			t.Fatalf("op %d: request with a trailing byte accepted", op)
		}
	}
}

func TestPingReturnsIDAndVersion(t *testing.T) {
	d := newTestDaemon(t)
	dec, err := call(t, d, proto.OpPing, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id := dec.U32(); id != 3 {
		t.Fatalf("ping id = %d", id)
	}
	if v := dec.U16(); v != proto.ProtocolVersion {
		t.Fatalf("ping version = %d, want %d", v, proto.ProtocolVersion)
	}
	// The shm advertisement trailer: empty unless the daemon was
	// configured with a doorbell socket.
	if sock := dec.Str(); sock != "" {
		t.Fatalf("ping shm socket = %q, want empty", sock)
	}
	// The effective chunk size (protocol v12): what a mount learns.
	if chunk := dec.I64(); chunk != 256 {
		t.Fatalf("ping chunk size = %d, want 256", chunk)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
}

// encChunks builds an OpReadChunks request.
func encChunks(path string, spans []proto.ChunkSpan, flags uint8) []byte {
	return append(encWrite(path, spans), flags)
}

// encWrite builds an OpWriteChunks request: the path and the span vector.
func encWrite(path string, spans []proto.ChunkSpan) []byte {
	e := rpc.NewEnc(len(path) + 17 + 24*len(spans))
	e.Str(path)
	proto.EncodeSpans(e, spans)
	return e.Bytes()
}

// encFor builds op's request for spans of path, op being OpReadChunks or
// OpWriteChunks.
func encFor(op rpc.Op, path string, spans []proto.ChunkSpan) []byte {
	if op == proto.OpWriteChunks {
		return encWrite(path, spans)
	}
	return encChunks(path, spans, 0)
}

// TestReadChunksSizeView covers the stat-free read reply extension: the
// size view is piggybacked only when requested, reports the metadata
// record when present, answers ReadSizeNone for missing paths, and
// refuses directories.
func TestReadChunksSizeView(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	// Give /f some bytes and a size.
	span := []proto.ChunkSpan{{ID: 0, Off: 0, Len: 5}}
	if _, err := call(t, d, proto.OpWriteChunks, encWrite("/f", span), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	e := rpc.NewEnc(32)
	e.Str("/f").I64(5).U8(0).I64(1)
	if _, err := call(t, d, proto.OpUpdateSize, e.Bytes(), nil); err != nil {
		t.Fatal(err)
	}

	// No size view asked for: the reply ends after the counts.
	dec, err := call(t, d, proto.OpReadChunks, encChunks("/f", span, 0), make([]byte, 5))
	if err != nil {
		t.Fatal(err)
	}
	if cnt := dec.U32(); cnt != 1 {
		t.Fatalf("count = %d", cnt)
	}
	_ = dec.I64()
	if err := dec.Done(); err != nil {
		t.Fatalf("reply without ReadWantSize carries trailing bytes: %v", err)
	}
	// A request without the flags byte is malformed since protocol v9.
	short := encChunks("/f", span, 0)
	if _, err := call(t, d, proto.OpReadChunks, short[:len(short)-1], make([]byte, 5)); err == nil {
		t.Fatal("request without a flags byte accepted")
	}

	// ReadWantSize: state + size follow the counts.
	dec, err = call(t, d, proto.OpReadChunks, encChunks("/f", span, proto.ReadWantSize), make([]byte, 5))
	if err != nil {
		t.Fatal(err)
	}
	_ = dec.U32()
	_ = dec.I64()
	if state := dec.U8(); state != proto.ReadSizeFile {
		t.Fatalf("state = %d, want ReadSizeFile", state)
	}
	if size := dec.I64(); size != 5 {
		t.Fatalf("size view = %d, want 5", size)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}

	// Zero-span size probe on a missing path: no bulk region at all.
	dec, err = call(t, d, proto.OpReadChunks, encChunks("/missing", nil, proto.ReadWantSize), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cnt := dec.U32(); cnt != 0 {
		t.Fatalf("probe count = %d", cnt)
	}
	if state := dec.U8(); state != proto.ReadSizeNone {
		t.Fatalf("probe state = %d, want ReadSizeNone", state)
	}
	_ = dec.I64()
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}

	// A directory refuses size-view reads outright.
	if _, err := call(t, d, proto.OpCreate, encCreate("/dir", meta.ModeDir), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call(t, d, proto.OpReadChunks, encChunks("/dir", nil, proto.ReadWantSize), nil); !errors.Is(err, proto.ErrIsDir) {
		t.Fatalf("size-view read of a directory = %v, want ErrIsDir", err)
	}
}

func TestCreateStatRemoveLifecycle(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	// Duplicate create fails with ErrExist.
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); !errors.Is(err, proto.ErrExist) {
		t.Fatalf("duplicate create = %v", err)
	}
	dec, err := call(t, d, proto.OpStat, encPath("/f"), nil)
	if err != nil {
		t.Fatal(err)
	}
	md, err := meta.DecodeMetadata(dec.Blob())
	if err != nil || md.IsDir() || md.Size != 0 {
		t.Fatalf("stat = %+v, %v", md, err)
	}
	dec, err = call(t, d, proto.OpRemoveMeta, encRemove("/f", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mode := dec.U8(); meta.Mode(mode) != meta.ModeRegular {
		t.Fatalf("removed mode = %d", mode)
	}
	if size := dec.I64(); size != 0 {
		t.Fatalf("removed size = %d", size)
	}
	if _, err := call(t, d, proto.OpStat, encPath("/f"), nil); !errors.Is(err, proto.ErrNotExist) {
		t.Fatalf("stat after remove = %v", err)
	}
	if _, err := call(t, d, proto.OpRemoveMeta, encRemove("/f", 0), nil); !errors.Is(err, proto.ErrNotExist) {
		t.Fatalf("double remove = %v", err)
	}
}

func TestUpdateSizeGrowIsMonotone(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	grow := func(size int64) {
		e := rpc.NewEnc(32)
		e.Str("/f").I64(size).U8(0).I64(time.Now().UnixNano())
		if _, err := call(t, d, proto.OpUpdateSize, e.Bytes(), nil); err != nil {
			t.Fatal(err)
		}
	}
	grow(100)
	grow(50) // late-arriving smaller candidate must not shrink
	grow(80)
	dec, err := call(t, d, proto.OpStat, encPath("/f"), nil)
	if err != nil {
		t.Fatal(err)
	}
	md, _ := meta.DecodeMetadata(dec.Blob())
	if md.Size != 100 {
		t.Fatalf("size = %d, want max 100", md.Size)
	}
}

func TestUpdateSizeTruncateValidates(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/dir", meta.ModeDir), nil); err != nil {
		t.Fatal(err)
	}
	tr := func(path string, size int64) error {
		e := rpc.NewEnc(32)
		e.Str(path).I64(size).U8(1).I64(time.Now().UnixNano())
		_, err := call(t, d, proto.OpUpdateSize, e.Bytes(), nil)
		return err
	}
	if err := tr("/dir", 0); !errors.Is(err, proto.ErrIsDir) {
		t.Fatalf("truncate dir = %v", err)
	}
	if err := tr("/missing", 0); !errors.Is(err, proto.ErrNotExist) {
		t.Fatalf("truncate missing = %v", err)
	}
}

func TestWriteReadChunksThroughHandlers(t *testing.T) {
	d := newTestDaemon(t)
	// Two spans of different chunks in one RPC.
	e := rpc.NewEnc(64)
	e.Str("/data")
	proto.EncodeSpans(e, []proto.ChunkSpan{
		{ID: 0, Off: 10, Len: 5},
		{ID: 7, Off: 0, Len: 3},
	})
	bulk := []byte("HELLOxyz")
	dec, err := call(t, d, proto.OpWriteChunks, e.Bytes(), bulk)
	if err != nil {
		t.Fatal(err)
	}
	if n := dec.I64(); n != 8 {
		t.Fatalf("written = %d", n)
	}

	re := rpc.NewEnc(64)
	re.Str("/data")
	proto.EncodeSpans(re, []proto.ChunkSpan{
		{ID: 0, Off: 10, Len: 5},
		{ID: 7, Off: 0, Len: 3},
		{ID: 9, Off: 0, Len: 4}, // never written: zeros
	})
	re.U8(0)
	out := make([]byte, 12)
	dec, err = call(t, d, proto.OpReadChunks, re.Bytes(), out)
	if err != nil {
		t.Fatal(err)
	}
	if cnt := dec.U32(); cnt != 3 {
		t.Fatalf("span count = %d", cnt)
	}
	if c0, c1, c2 := dec.I64(), dec.I64(), dec.I64(); c0 != 5 || c1 != 3 || c2 != 0 {
		t.Fatalf("counts = %d,%d,%d", c0, c1, c2)
	}
	if string(out[:8]) != "HELLOxyz" {
		t.Fatalf("bulk out = %q", out)
	}
	if string(out[8:]) != "\x00\x00\x00\x00" {
		t.Fatalf("hole not zero: %q", out[8:])
	}
}

func TestWriteChunksBulkTooSmall(t *testing.T) {
	d := newTestDaemon(t)
	e := rpc.NewEnc(32)
	e.Str("/x")
	proto.EncodeSpans(e, []proto.ChunkSpan{{ID: 0, Off: 0, Len: 100}})
	_, err := call(t, d, proto.OpWriteChunks, e.Bytes(), make([]byte, 10))
	if err == nil {
		t.Fatal("short bulk accepted")
	}
}

func TestReadDirScopedToChildren(t *testing.T) {
	d := newTestDaemon(t)
	for _, p := range []string{"/a", "/a/x", "/a/y", "/a/x/deep", "/ab", "/b"} {
		mode := meta.ModeRegular
		if p == "/a" || p == "/a/x" {
			mode = meta.ModeDir
		}
		if _, err := call(t, d, proto.OpCreate, encCreate(p, mode), nil); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := call(t, d, proto.OpReadDir, encReadDir("/a", "", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := dec.U32()
	names := map[string]bool{}
	for i := uint32(0); i < n; i++ {
		name := dec.Str()
		dec.U8()
		dec.I64()
		names[name] = true
	}
	if next := dec.Str(); next != "" {
		t.Fatalf("unexpected continuation token %q", next)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || !names["x"] || !names["y"] {
		t.Fatalf("children of /a = %v", names)
	}
}

func TestStatsCounters(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call(t, d, proto.OpStat, encPath("/f"), nil); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Creates != 1 || st.StatOps != 1 {
		t.Fatalf("stats = %+v", st)
	}
	dec, err := call(t, d, proto.OpStats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wire := proto.DaemonStatsOf(proto.DecodeSnapshot(dec)); dec.Done() != nil || wire.Creates != 1 || wire.StatOps != 1 {
		t.Fatalf("wire stats = %+v, decode %v", wire, dec.Done())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil FS accepted")
	}
	if _, err := New(Config{FS: vfs.NewMem(), ChunkSize: -1}); err == nil {
		t.Fatal("negative chunk size accepted")
	}
	if _, err := New(Config{FS: vfs.NewMem(), ChunkSize: rpc.MaxBulk + 1}); err == nil {
		t.Fatal("a chunk larger than one RPC's transfer accepted")
	}
}

func TestStartupTimeRecorded(t *testing.T) {
	d := newTestDaemon(t)
	if d.StartupTime() <= 0 {
		t.Fatal("startup time not recorded")
	}
}

// TestStoredRecordIsBareMetadata pins the stored shape: a created file's
// record is the 25-byte Metadata, with nothing around it.
func TestStoredRecordIsBareMetadata(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	v, err := d.db.Get([]byte("/f"))
	if err != nil {
		t.Fatal(err)
	}
	if md, err := meta.DecodeMetadata(v); len(v) != 25 || err != nil || md.Mode != meta.ModeRegular {
		t.Fatalf("stored record %x (%d bytes) decodes to %+v, %v; want a 25-byte regular file", v, len(v), md, err)
	}
}

// TestSecondDaemonOnDirFails: a daemon holds its data directory until
// Close. A second one on the same directory fails with ErrDirInUse naming
// the holder; one opened after Close serves the directory.
func TestSecondDaemonOnDirFails(t *testing.T) {
	fs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := New(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := call(t, first, proto.OpCreate, encCreate("/kept", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	second, err := New(Config{FS: fs})
	var inUse *ErrDirInUse
	if !errors.As(err, &inUse) || inUse.PID != os.Getpid() {
		if second != nil {
			second.Close()
		}
		t.Fatalf("second daemon on an open directory: %v; want ErrDirInUse naming pid %d", err, os.Getpid())
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatalf("a second Close: %v", err)
	}
	reopened, err := New(Config{FS: fs})
	if err != nil {
		t.Fatalf("daemon after Close: %v", err)
	}
	defer reopened.Close()
	if _, err := call(t, reopened, proto.OpStat, encPath("/kept"), nil); err != nil {
		t.Fatalf("the reopened daemon lost /kept: %v", err)
	}
}
