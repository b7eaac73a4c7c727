package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestIteratorLiveThroughoutScan races writers, merges and forced
// checkpoints against open iterators and checks what a scan promises
// without a point in time: every key live for the whole scan comes back
// exactly once, with a value of its own; no key absent for the whole scan
// ever appears; keys come in ascending order. Stable keys are only
// overwritten and merged into, absent keys were deleted (some from the
// base, some before any checkpoint) or never written, and churn keys come
// and go and may show or not. One iterator lives across every round,
// another is opened per round.
func TestIteratorLiveThroughoutScan(t *testing.T) {
	const n = 300
	db := openTestDB(t, Options{Merger: appendMerger, logBytes: 4 << 10})
	name := func(set string, i int) []byte { return []byte(fmt.Sprintf("%s-%03d", set, i)) }
	tagged := func(k []byte, rest string) []byte { return append(append(bytes.Clone(k), ':'), rest...) }
	for i := 0; i < n; i++ {
		if err := db.Put(name("s", i), tagged(name("s", i), "0")); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := db.Put(name("a", i), tagged(name("a", i), "0")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		if err := db.Delete(name("a", i)); err != nil {
			t.Fatal(err)
		}
	}

	long, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer long.Close()
	scan := func(it *Iterator) error {
		var last []byte
		stable := 0
		for it.SeekFirst(); it.Valid(); it.Next() {
			k, v := it.Key(), it.Value()
			if last != nil && bytes.Compare(k, last) <= 0 {
				return fmt.Errorf("%s after %s", k, last)
			}
			last = append(last[:0], k...)
			switch k[0] {
			case 'a':
				return fmt.Errorf("%s, absent for the whole scan, = %q", k, v)
			case 's':
				if want := name("s", stable); !bytes.Equal(k, want) {
					return fmt.Errorf("scan skipped %s, live throughout (landed on %s)", want, k)
				}
				stable++
			}
			if !bytes.HasPrefix(v, tagged(k, "")) {
				return fmt.Errorf("%s = %q, not a value of its own", k, v)
			}
		}
		if stable != n {
			return fmt.Errorf("scan returned %d of the %d keys live throughout", stable, n)
		}
		return nil
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // overwrites, merges and churn
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for r := 0; !done.Load(); r++ {
				var err error
				s, c := name("s", rnd.Intn(n)), name("c", rnd.Intn(n))
				switch rnd.Intn(4) {
				case 0:
					err = db.Put(s, tagged(s, fmt.Sprint(r)))
				case 1:
					err = db.Merge(s, []byte("+"))
				case 2:
					b := &Batch{}
					b.Put(c, tagged(c, fmt.Sprint(r)))
					b.Merge(s, []byte("+"))
					err = db.Apply(b)
				case 3:
					err = db.Delete(c)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if err := db.checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	racedScans := 0
	for round := 0; err == nil && round < 200 && (round < 20 || racedScans < 10); round++ {
		var it *Iterator
		if it, err = db.NewIterator(); err != nil {
			break
		}
		before := db.Stats().Checkpoints
		if err = scan(it); err == nil {
			err = scan(long)
		}
		it.Close()
		if err != nil {
			err = fmt.Errorf("round %d: %v", round, err)
		} else if db.Stats().Checkpoints > before {
			racedScans++
		}
	}
	done.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if racedScans < 10 {
		t.Fatalf("only %d scans had a checkpoint installed under them", racedScans)
	}
}
