package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/vfs"
)

const (
	numDaemons = 2
	numWorkers = 2
	// callTimeout bounds one RPC; far above anything a healthy run sees,
	// so a hang surfaces as a counted failure, not a stuck benchmark.
	callTimeout = 60 * time.Second
)

// cluster is two in-process daemons served over loopback TCP, with one
// pooled connection (one socket) to each. Everything it starts, Close
// stops and waits for.
type cluster struct {
	dir       string // this deployment's directory under the run root; "" on mem
	daemons   []*daemon.Daemon
	listeners []net.Listener
	conns     []rpc.Conn
	serving   sync.WaitGroup
	vfsRecs   []*recorder // one per daemon when traced, else nil
}

// deploy starts the daemons under a fresh directory of parent (or on
// vfs.NewMem when mem is set), serves them on 127.0.0.1:0 and dials
// them. With a tracer, each daemon's FS is wrapped by the vfs span
// decorator.
func deploy(parent string, mem bool, tr *tracer) (cl *cluster, err error) {
	cl = &cluster{}
	defer func() {
		if err != nil {
			err = errors.Join(err, cl.Close())
			cl = nil
		}
	}()
	if !mem {
		if cl.dir, err = os.MkdirTemp(parent, "cluster-"); err != nil {
			return cl, err
		}
	}
	for i := 0; i < numDaemons; i++ {
		var fs vfs.FS = vfs.NewMem()
		if !mem {
			if fs, err = vfs.NewOS(filepath.Join(cl.dir, fmt.Sprintf("daemon%d", i))); err != nil {
				return cl, err
			}
		}
		if tr != nil {
			rec := tr.newRecorder()
			cl.vfsRecs = append(cl.vfsRecs, rec)
			fs = &tracedFS{inner: fs, rec: rec}
		}
		d, err := daemon.New(daemon.Config{ID: i, FS: fs})
		if err != nil {
			return cl, fmt.Errorf("daemon %d: %w", i, err)
		}
		cl.daemons = append(cl.daemons, d)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cl, fmt.Errorf("daemon %d: %w", i, err)
		}
		cl.listeners = append(cl.listeners, l)
		cl.serving.Add(1)
		go func() {
			defer cl.serving.Done()
			// Returns net.ErrClosed when Close closes the listener.
			_ = transport.ServeTCP(l, d.Server())
		}()
		conn, err := transport.DialTCPPool(l.Addr().String(), callTimeout, 1)
		if err != nil {
			return cl, fmt.Errorf("daemon %d: dial: %w", i, err)
		}
		cl.conns = append(cl.conns, conn)
	}
	return cl, nil
}

// mount builds one client over the cluster's shared connections and
// checks the daemons answer with this build's protocol. With a recorder
// the client sees the connections through the transport.call decorator.
func (cl *cluster) mount(cfg client.Config, rec *recorder) (*client.Client, error) {
	cfg.Conns = cl.conns
	if rec != nil {
		cfg.Conns = make([]rpc.Conn, len(cl.conns))
		for i, c := range cl.conns {
			cfg.Conns[i] = &tracedConn{inner: c, rec: rec, daemon: uint8(i)}
		}
	}
	c, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.VerifyProtocol(); err != nil {
		return nil, err
	}
	if err := c.EnsureRoot(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes connections, listeners and daemons, waits for the accept
// loops to return and removes the deployment's directory. It is safe on
// a partly built cluster.
func (cl *cluster) Close() error {
	var errs []error
	for _, c := range cl.conns {
		errs = append(errs, c.Close())
	}
	for _, l := range cl.listeners {
		errs = append(errs, l.Close())
	}
	cl.serving.Wait()
	for _, d := range cl.daemons {
		errs = append(errs, d.Close())
	}
	if cl.dir != "" {
		errs = append(errs, os.RemoveAll(cl.dir))
	}
	return errors.Join(errs...)
}
