package daemon_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/daemon"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// BenchmarkGrow times size grows through the single-op framing from 4
// goroutines, on one shared path, where every grow contends for one key,
// and on 64 distinct paths. The store is a vfs.Mem, so the commit path is
// what is timed, not a disk.
func BenchmarkGrow(b *testing.B) {
	for _, arm := range []struct {
		name  string
		paths int
	}{{"shared", 1}, {"distinct", 64}} {
		b.Run(arm.name, func(b *testing.B) {
			d, err := daemon.New(daemon.Config{FS: vfs.NewMem()})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			reqs := make([][]byte, arm.paths)
			for i := range reqs {
				op := proto.MetaOp{Kind: proto.MetaOpUpdateSize, Path: fmt.Sprintf("/grow/f%02d", i), Size: 1 << 20, TimeNS: 1}
				e := rpc.NewEnc(64)
				proto.EncodeMetaOpBody(e, &op)
				reqs[i] = e.Bytes()
			}
			const workers = 4
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += workers {
						if _, err := d.Server().Dispatch(rpc.Op(proto.MetaOpUpdateSize), reqs[i%len(reqs)], nil); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
