package chunkstore

import (
	"fmt"
	"testing"

	"repro/internal/meta"
	"repro/internal/vfs"
)

// BenchmarkChunkRewrite times one in-place chunk rewrite on the OS file
// system, copied into the chunk file's mapping or pwritten, with its
// pages dirty or just cleaned by a sync (which write-protects them in
// every mapping, so a mapped store into each page faults once). It is
// the measurement mapWriteMax is chosen from. Each lap rewrites every
// byte of rewriteChunks chunk files once; the clean variant syncs them
// between laps, outside the timer.
func BenchmarkChunkRewrite(b *testing.B) {
	const rewriteChunks = 8
	for _, size := range []int{8 << 10, 16 << 10, 64 << 10, 512 << 10} {
		for _, clean := range []bool{false, true} {
			for _, mapped := range []bool{true, false} {
				pages, how := "dirty", "pwrite"
				if clean {
					pages = "synced"
				}
				if mapped {
					how = "mapped"
				}
				b.Run(fmt.Sprintf("%dKiB/%s/%s", size>>10, pages, how), func(b *testing.B) {
					fs, err := vfs.NewOS(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					s := New(fs)
					defer s.Close()
					s.mapWriteMax = -1
					if mapped {
						s.mapWriteMax = size
					}
					chunk := make([]byte, meta.DefaultChunkSize)
					files := make([]vfs.File, rewriteChunks)
					for id := range files {
						if err := s.WriteChunk("/f", meta.ChunkID(id), 0, chunk); err != nil {
							b.Fatal(err)
						}
						if files[id], err = fs.Open(chunkFile("/f", meta.ChunkID(id))); err != nil {
							b.Fatal(err)
						}
						defer files[id].Close()
					}
					perChunk := int(meta.DefaultChunkSize) / size
					lap := rewriteChunks * perChunk
					data := make([]byte, size)
					rewrite := func(i int) {
						id, off := (i%lap)/perChunk, (i%perChunk)*size
						if err := s.WriteChunk("/f", meta.ChunkID(id), int64(off), data); err != nil {
							b.Fatal(err)
						}
					}
					sync := func() {
						for _, f := range files {
							if err := f.Sync(); err != nil {
								b.Fatal(err)
							}
						}
					}
					for i := 0; i < lap; i++ { // map every file before the clock runs
						rewrite(i)
					}
					if clean {
						sync()
					}
					b.SetBytes(int64(size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if clean && i > 0 && i%lap == 0 {
							b.StopTimer()
							sync()
							b.StartTimer()
						}
						rewrite(i)
					}
					b.StopTimer()
					if st := s.OpenStats(); mapped != (st.WriteMappedBytes > 0) {
						b.Fatalf("mapped=%v but %d bytes were copied into mappings", mapped, st.WriteMappedBytes)
					}
				})
			}
		}
	}
}
