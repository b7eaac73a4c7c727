package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/kvstore"
	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// The probes measure single layers and the machine's ceilings from
// outside: each builds the layer with its public constructor on the same
// backing as the daemons and calls only its hot-path methods, so a
// refactor inside a layer rarely reaches this file.

const chunkBytes = meta.DefaultChunkSize

// timeCalls calls fn(i) with i counting up until budget has passed and
// returns the mean nanoseconds per call. The clock is read once per
// batch so that it does not dominate nanosecond-scale calls.
func timeCalls(budget time.Duration, batch int, fn func(i int) error) (float64, error) {
	t0 := time.Now()
	n := 0
	for {
		for end := n + batch; n < end; n++ {
			if err := fn(n); err != nil {
				return 0, err
			}
		}
		if el := time.Since(t0); el >= budget {
			return float64(el) / float64(n), nil
		}
	}
}

func gibPerS(bytesPerCall int, nsPerCall float64) float64 {
	return float64(bytesPerCall) / nsPerCall * 1e9 / (1 << 30)
}

// runProbes fills in every P metric. Files go under a probe directory
// of the run root, removed before it returns.
func runProbes(ctx context.Context, cfg *config, m metricSet) error {
	budget := cfg.probe
	dir, err := os.MkdirTemp(cfg.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	newFS := func(name string) (vfs.FS, error) {
		if cfg.mem {
			return vfs.NewMem(), nil
		}
		return vfs.NewOS(filepath.Join(dir, name))
	}
	for _, probe := range []func() error{
		func() error { return probeMemcpy(budget, m) },
		func() error { return probeLoopback(budget, m) },
		func() error { return probeFile(budget, filepath.Join(dir, "ceiling.dat"), m) },
		func() error { return probeTransport(budget, m) },
		func() error { return probeCodecs(budget, m) },
		func() error {
			fs, err := newFS("kv")
			if err != nil {
				return err
			}
			return probeKV(budget, fs, m)
		},
		func() error {
			fs, err := newFS("chunks")
			if err != nil {
				return err
			}
			return probeChunks(budget, fs, m)
		},
	} {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := probe(); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

func probeMemcpy(budget time.Duration, m metricSet) error {
	const n = 64 << 20 // far beyond the last-level cache
	src, dst := make([]byte, n), make([]byte, n)
	copy(dst, src) // fault the pages in, untimed
	ns, err := timeCalls(budget, 1, func(int) error { copy(dst, src); return nil })
	m["ceiling.memcpy_gib_s"] = gibPerS(n, ns)
	return err
}

// probeLoopback measures a one-byte ping-pong and a raw TCP stream over
// loopback: what the kernel allows a transport with no framing at all.
// Each has its own connection; the peer echoes the first it accepts byte
// by byte and swallows the second.
func probeLoopback(budget time.Duration, m metricSet) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	echo := func(c net.Conn) error {
		one := make([]byte, 1)
		for {
			if _, err := io.ReadFull(c, one); err != nil {
				return err
			}
			if _, err := c.Write(one); err != nil {
				return err
			}
		}
	}
	swallow := func(c net.Conn) error {
		buf := make([]byte, transferBytes)
		for {
			if _, err := c.Read(buf); err != nil {
				return err
			}
		}
	}
	peerDone := make(chan error, 1)
	go func() {
		for _, serve := range []func(net.Conn) error{echo, swallow} {
			conn, err := l.Accept()
			if err == nil {
				err = serve(conn) // until the client closes its end
				conn.Close()
			}
			if err != io.EOF {
				peerDone <- err
				return
			}
		}
		peerDone <- nil
	}()
	// with dials the peer, runs use on the connection and closes it.
	with := func(use func(net.Conn) error) error {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return err
		}
		return errors.Join(use(conn), conn.Close())
	}
	err = with(func(conn net.Conn) error {
		one := make([]byte, 1)
		var rtts []int64
		_, err := timeCalls(budget, 1, func(int) error {
			t0 := time.Now()
			if _, err := conn.Write(one); err != nil {
				return err
			}
			if _, err := io.ReadFull(conn, one); err != nil {
				return err
			}
			rtts = append(rtts, int64(time.Since(t0)))
			return nil
		})
		slices.Sort(rtts)
		m["ceiling.loopback_rtt_us"] = percentile(rtts, 0.50) / 1e3
		return err
	})
	if err == nil {
		err = with(func(conn net.Conn) error {
			buf := make([]byte, transferBytes)
			ns, err := timeCalls(budget, 1, func(int) error { _, err := conn.Write(buf); return err })
			m["ceiling.loopback_tcp_gib_s"] = gibPerS(len(buf), ns)
			return err
		})
	}
	if err != nil {
		l.Close() // the peer may still be waiting for a connection
		<-peerDone
		return err
	}
	return <-peerDone
}

// probeFile measures 512 KiB pwrite and pread on the backing directory,
// cycling over 64 MiB so the page cache, not the device, is the limit —
// the regime the daemons' chunk files run in.
func probeFile(budget time.Duration, path string, m metricSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	const slots = 128
	buf := make([]byte, chunkBytes)
	at := func(i int) int64 { return int64(i%slots) * chunkBytes }
	for i := 0; i < slots; i++ { // allocate the pages once, untimed
		if _, err := f.WriteAt(buf, at(i)); err != nil {
			return err
		}
	}
	ns, err := timeCalls(budget, 1, func(i int) error { _, err := f.WriteAt(buf, at(i)); return err })
	if err != nil {
		return err
	}
	m["ceiling.pwrite_gib_s"] = gibPerS(len(buf), ns)
	ns, err = timeCalls(budget, 1, func(i int) error { _, err := f.ReadAt(buf, at(i)); return err })
	m["ceiling.pread_gib_s"] = gibPerS(len(buf), ns)
	return err
}

// probeTransport serves a bare rpc.Server with no-op handlers over
// loopback TCP: the transport and dispatch cost with no daemon behind.
func probeTransport(budget time.Duration, m metricSet) error {
	const opNoop, opSink, opSource rpc.Op = 1, 2, 3
	srv := rpc.NewServer(0)
	defer srv.Close()
	srv.Register(opNoop, func([]byte, rpc.Bulk) ([]byte, error) { return nil, nil })
	srv.Register(opSink, func(_ []byte, b rpc.Bulk) ([]byte, error) {
		_, err := b.Bytes()
		return nil, err
	})
	srv.Register(opSource, func(_ []byte, b rpc.Bulk) ([]byte, error) {
		if _, err := b.Writable(b.Len()); err != nil {
			return nil, err
		}
		return nil, b.Commit(b.Len())
	})
	ns, err := timeCalls(budget, 1024, func(int) error {
		_, err := srv.Dispatch(opNoop, nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["rpc.dispatch_ns"] = ns

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = transport.ServeTCP(l, srv) // net.ErrClosed once l closes
	}()
	defer func() {
		l.Close()
		<-served
	}()
	conn, err := transport.DialTCP(l.Addr().String(), callTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	ns, err = timeCalls(budget, 1, func(int) error {
		_, err := conn.Call(opNoop, nil, nil, rpc.BulkNone)
		return err
	})
	if err != nil {
		return err
	}
	m["transport.ping_rtt_us"] = ns / 1e3
	bulk := make([]byte, chunkBytes)
	ns, err = timeCalls(budget, 1, func(int) error {
		_, err := conn.Call(opSink, nil, bulk, rpc.BulkIn)
		return err
	})
	if err != nil {
		return err
	}
	m["transport.bulk_in_gib_s"] = gibPerS(len(bulk), ns)
	ns, err = timeCalls(budget, 1, func(int) error {
		_, err := conn.Call(opSource, nil, bulk, rpc.BulkOut)
		return err
	})
	m["transport.bulk_out_gib_s"] = gibPerS(len(bulk), ns)
	return err
}

// sink keeps the codec probes' results alive.
var sink int

func probeCodecs(budget time.Duration, m metricSet) error {
	vm := meta.VersionedMeta{V: []meta.Version{{Meta: meta.Metadata{Mode: meta.ModeRegular, Size: 1 << 20, CTimeNS: 1, MTimeNS: 2}}}}
	enc := vm.Encode()
	ns, _ := timeCalls(budget, 1024, func(int) error { sink += len(vm.Encode()); return nil })
	m["meta.encode_ns"] = ns
	ns, err := timeCalls(budget, 1024, func(int) error {
		v, err := meta.DecodeVersionedMeta(enc)
		sink += len(v.V)
		return err
	})
	if err != nil {
		return err
	}
	m["meta.decode_ns"] = ns
	var h telemetry.Histogram
	ns, _ = timeCalls(budget, 1024, func(i int) error { h.Observe(int64(i) * 1000); return nil })
	m["telemetry.observe_ns"] = ns
	return nil
}

// probeKV times the four kvstore calls the metadata handlers make, on
// records shaped like the daemons' (path keys, 25-byte values).
func probeKV(budget time.Duration, fs vfs.FS, m metricSet) error {
	last := func(_, _ []byte, operands [][]byte) []byte { return operands[len(operands)-1] }
	db, err := kvstore.Open(kvstore.Options{FS: fs, Merger: last})
	if err != nil {
		return err
	}
	defer db.Close()
	md := meta.Metadata{Mode: meta.ModeRegular}
	val := md.Encode()
	key := func(i int) []byte { return []byte(fmt.Sprintf("/probe/file-%08d", i)) }
	var puts int
	ns, err := timeCalls(budget, 64, func(i int) error {
		puts = i + 1
		_, err := db.PutIfAbsent(key(i), val)
		return err
	})
	if err != nil {
		return err
	}
	m["kvstore.put_us"] = ns / 1e3
	ns, err = timeCalls(budget, 64, func(i int) error {
		v, err := db.Get(key(i % puts))
		sink += len(v)
		return err
	})
	if err != nil {
		return err
	}
	m["kvstore.get_us"] = ns / 1e3
	ns, err = timeCalls(budget, 64, func(i int) error { return db.Merge(key(i%puts), val) })
	if err != nil {
		return err
	}
	m["kvstore.merge_us"] = ns / 1e3
	ns, err = timeCalls(budget, 64, func(i int) error { return db.Delete(key(i % puts)) })
	m["kvstore.delete_us"] = ns / 1e3
	return err
}

// probeChunks times whole-chunk and 8 KiB chunkstore calls over 64
// chunks of one path, the way the chunk handlers call the store.
func probeChunks(budget time.Duration, fs vfs.FS, m metricSet) error {
	st := chunkstore.New(fs)
	const path, ids = "/probe", 64
	big, small := make([]byte, chunkBytes), make([]byte, smallBytes)
	smallOff := func(i int) int64 { return int64(i/ids%(chunkBytes/smallBytes)) * smallBytes }
	for _, p := range []struct {
		metric string
		call   func(i int) error
	}{
		{"chunkstore.write_512k_us", func(i int) error { return st.WriteChunk(path, meta.ChunkID(i%ids), 0, big) }},
		{"chunkstore.read_512k_us", func(i int) error { return readAll(st, path, meta.ChunkID(i%ids), 0, big) }},
		{"chunkstore.write_8k_us", func(i int) error { return st.WriteChunk(path, meta.ChunkID(i%ids), smallOff(i), small) }},
		{"chunkstore.read_8k_us", func(i int) error { return readAll(st, path, meta.ChunkID(i%ids), smallOff(i), small) }},
	} {
		// One untimed lap first, so every chunk file exists.
		for i := 0; i < ids; i++ {
			if err := p.call(i); err != nil {
				return err
			}
		}
		ns, err := timeCalls(budget, 1, p.call)
		if err != nil {
			return err
		}
		m[p.metric] = ns / 1e3
	}
	return st.RemoveChunks(path)
}

func readAll(st *chunkstore.Store, path string, id meta.ChunkID, off int64, dst []byte) error {
	n, err := st.ReadChunk(path, id, off, dst)
	if err == nil && n != len(dst) {
		err = errShort(n, len(dst))
	}
	return err
}
