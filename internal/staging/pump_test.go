package staging

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEnds is a source and sink for pump whose calls finish out of order
// (each sleeps a duration derived from its offset) and which records
// what pump asked of them.
type fakeEnds struct {
	src       []byte
	failRead  int64 // a read at this offset fails (-1: none)
	failWrite int64 // a write covering this offset fails (-1: none)

	mu      sync.Mutex
	dst     []byte
	maxRead int64 // highest offset a read started at
	active  atomic.Int32
}

var errInjected = errors.New("injected failure")

func newFakeEnds(src []byte) *fakeEnds {
	return &fakeEnds{src: src, failRead: -1, failWrite: -1, maxRead: -1}
}

func jitter(off int64) {
	time.Sleep(time.Duration(off/(64<<10)*7919%5) * 100 * time.Microsecond)
}

func (f *fakeEnds) read(p []byte, off int64) (int, error) {
	f.active.Add(1)
	defer f.active.Add(-1)
	jitter(off)
	f.mu.Lock()
	f.maxRead = max(f.maxRead, off)
	f.mu.Unlock()
	if off == f.failRead {
		return 0, errInjected
	}
	if off >= int64(len(f.src)) {
		return 0, io.EOF
	}
	n := copy(p, f.src[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *fakeEnds) write(p []byte, off int64) error {
	f.active.Add(1)
	defer f.active.Add(-1)
	jitter(off + 1<<20)
	if f.failWrite >= off && f.failWrite < off+int64(len(p)) {
		return errInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.dst)) {
		f.dst = append(f.dst, make([]byte, end-int64(len(f.dst)))...)
	}
	copy(f.dst[off:], p)
	return nil
}

// pumpSource is five and a bit windows of data with a hole in the
// middle, so the zero-run skip and the read-ahead both come into play.
func pumpSource() []byte {
	src := make([]byte, 5*bufBytes+12345)
	rand.New(rand.NewSource(1)).Read(src)
	clear(src[2*bufBytes+zeroProbe : 3*bufBytes])
	return src
}

// TestPumpKeepsStreamOrder runs a whole-file range through pump with
// reads and writes completing out of order. The sink must hold exactly
// the source, no call may outlive pump, and a file at its walk-time size
// is never read past the byte after its EOF.
func TestPumpKeepsStreamOrder(t *testing.T) {
	full := pumpSource()
	for _, tc := range []struct {
		name string
		src  []byte
		walk int64 // walk-time size
	}{
		{"as-walked", full, int64(len(full))},
		{"one-window", full[:3000], 3000},
		{"grew", full, int64(len(full)) - 3*bufBytes/2},
		{"shrank", full, int64(len(full)) + 2*bufBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src
			ends := newFakeEnds(src)
			w := stageWork{file: &xfile{size: tc.walk}, off: 0, end: math.MaxInt64}
			reached, err := pump(w, ends.read, ends.write)
			if err != nil {
				t.Fatal(err)
			}
			if n := ends.active.Load(); n != 0 {
				t.Fatalf("%d calls still running after pump returned", n)
			}
			if reached != int64(len(src)) {
				t.Fatalf("reached %d, want %d", reached, len(src))
			}
			got := append(ends.dst, make([]byte, len(src)-len(ends.dst))...)
			if !bytes.Equal(got, src) {
				t.Fatal("sink differs from source")
			}
			if tc.walk == int64(len(src)) && ends.maxRead > tc.walk {
				t.Fatalf("read at %d, past the EOF of a file that did not grow", ends.maxRead)
			}
		})
	}
}

// TestPumpBoundedRange copies an interior range: only its bytes move,
// and pump reaches exactly its end.
func TestPumpBoundedRange(t *testing.T) {
	src := pumpSource()
	ends := newFakeEnds(src)
	w := stageWork{file: &xfile{size: int64(len(src))}, off: bufBytes / 2, end: 3*bufBytes + 7}
	reached, err := pump(w, ends.read, ends.write)
	if err != nil {
		t.Fatal(err)
	}
	if reached != w.end {
		t.Fatalf("reached %d, want %d", reached, w.end)
	}
	want := make([]byte, w.end)
	copy(want[w.off:], src[w.off:w.end])
	got := append(ends.dst, make([]byte, int(w.end)-len(ends.dst))...)
	if !bytes.Equal(got, want) {
		t.Fatal("sink differs from the range")
	}
}

// TestPumpFailureDrains fails one read or one write in the middle of the
// stream: pump must return that failure, and only once every call it
// started has finished — the worker reuses the buffers next.
func TestPumpFailureDrains(t *testing.T) {
	src := pumpSource()
	for _, tc := range []struct {
		name  string
		setup func(*fakeEnds)
	}{
		{"read", func(f *fakeEnds) { f.failRead = 2 * bufBytes }},
		{"write", func(f *fakeEnds) { f.failWrite = bufBytes + 10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ends := newFakeEnds(src)
			tc.setup(ends)
			w := stageWork{file: &xfile{size: int64(len(src))}, off: 0, end: math.MaxInt64}
			_, err := pump(w, ends.read, ends.write)
			if !errors.Is(err, errInjected) {
				t.Fatalf("pump returned %v, want the injected failure", err)
			}
			if n := ends.active.Load(); n != 0 {
				t.Fatalf("%d calls still running after pump returned", n)
			}
		})
	}
}
