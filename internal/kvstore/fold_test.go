package kvstore

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vfs"
)

// Merges folded at insert (fold.go): tests for their cost, their
// equivalence to a plain left fold, and their behaviour under
// concurrency. Everything random here is drawn from -fold.seed.
var foldSeed = flag.Int64("fold.seed", 1, "base seed of the fold tests' random sequences")

// appendMerger concatenates: unlike a max it is neither commutative nor
// idempotent, so an operand applied out of order, twice or not at all
// changes the value.
func appendMerger(_, existing []byte, operands [][]byte) []byte {
	out := append([]byte(nil), existing...)
	for _, op := range operands {
		out = append(out, op...)
	}
	return out
}

// TestFoldAllocs pins what a point read allocates: the returned value and
// nothing else, whether the key was put or merged onto a put in the active
// memtable or lives in the base.
func TestFoldAllocs(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax})
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("base-%03d", i)), u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("put"), u64(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("merged"), u64(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Merge([]byte("merged"), u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		key  []byte
		max  float64
	}{
		{"memtable-put", []byte("put"), 1},
		{"memtable-merge-on-put", []byte("merged"), 1},
		{"base-put", []byte("base-050"), 1},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := db.Get(tc.key); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: Get allocates %.0f objects, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// pointOps are the read paths whose cost must not grow with merges.
var pointOps = []struct {
	name string
	run  func(t *testing.T, db *DB, key []byte)
}{
	{"Get", func(t *testing.T, db *DB, key []byte) {
		if _, err := db.Get(key); err != nil {
			t.Fatal(err)
		}
	}},
	{"Has", func(t *testing.T, db *DB, key []byte) {
		if ok, err := db.Has(key); err != nil || !ok {
			t.Fatalf("Has = %v, %v", ok, err)
		}
	}},
	{"Update", func(t *testing.T, db *DB, key []byte) {
		err := db.Update(key, func(cur []byte, _ bool) ([]byte, bool, error) { return cur, false, nil })
		if err != nil {
			t.Fatal(err)
		}
	}},
	{"Seek", func(t *testing.T, db *DB, key []byte) {
		it, err := db.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		if it.Seek(key); !it.Valid() || !bytes.Equal(it.Key(), key) {
			t.Fatalf("Seek(%q) landed on %q", key, it.Key())
		}
	}},
}

// TestMergeRunCostPin is the cost pin for merges into one key: after 10⁵
// of them the key is one memtable entry holding the folded value, and
// every point operation allocates what it does after 10 merges — in the
// memtable, after a reopen that replays the whole log, and after a
// checkpoint. Counts, not wall time.
func TestMergeRunCostPin(t *testing.T) {
	key := []byte("/shared/file")
	load := func(t *testing.T, fs vfs.FS, n int) *DB {
		// One memtable holds everything, so close leaves it all in the log.
		db := openTestDB(t, Options{FS: fs, Merger: sizeMax, logBytes: 1 << 30})
		for i := 1; i <= n; i++ {
			if err := db.Merge(key, u64(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	const many = 100_000
	smallFS, bigFS := vfs.NewMem(), vfs.NewMem()
	small, big := load(t, smallFS, 10), load(t, bigFS, many)

	check := func(phase string) {
		t.Helper()
		if v, err := big.Get(key); err != nil || !bytes.Equal(v, u64(many)) {
			t.Fatalf("%s: value = %v, %v; want %d", phase, v, err, many)
		}
		for _, op := range pointOps {
			if op.name == "Update" {
				// It writes, so its allocations include amortised log
				// growth; keep the two stores in step and move on.
				op.run(t, small, key)
				continue
			}
			want := testing.AllocsPerRun(50, func() { op.run(t, small, key) })
			got := testing.AllocsPerRun(50, func() { op.run(t, big, key) })
			if got != want {
				t.Errorf("%s: %s allocates %.0f objects after %d merges, %.0f after 10", phase, op.name, got, many, want)
			}
		}
	}
	if e, ok := big.mem.get(key); !ok || e.kind != kindPut || big.mem.entries() != 1 {
		t.Fatalf("after %d merges the memtable holds %+v, %v in %d entries; want the key as one put", many, e, ok, big.mem.entries())
	}
	check("memtable")
	if st := big.Stats(); st.Merges != many {
		t.Errorf("stats after %d merges: %d merges", many, st.Merges)
	}

	// Reopen first, while the log still holds every operand: replay goes
	// through the same insert path, and the recovery checkpoint writes the
	// hot key as one record.
	for _, db := range []*DB{small, big} {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	small = openTestDB(t, Options{FS: smallFS, Merger: sizeMax})
	big = openTestDB(t, Options{FS: bigFS, Merger: sizeMax})
	if st := big.Stats(); st.Checkpoints != 1 {
		t.Fatalf("%d checkpoints at recovery, want 1", st.Checkpoints)
	}
	if n := len(big.base.offs); n != 1 {
		t.Errorf("recovery checkpoint wrote %d records for one key, want 1", n)
	}
	check("reopen")

	for _, db := range []*DB{small, big} {
		if err := db.Merge(key, u64(5)); err != nil {
			t.Fatal(err)
		}
		if err := db.checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	check("checkpoint")
}

// foldModel is the reference the store is compared against: a map holding
// each key's straight left fold.
type foldModel map[string][]byte

func (m foldModel) clone() foldModel {
	c := make(foldModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (m foldModel) apply(kind kind, key string, val []byte) {
	switch kind {
	case kindPut:
		m[key] = val
	case kindDelete:
		delete(m, key)
	case kindMerge:
		m[key] = append(append([]byte(nil), m[key]...), val...)
	}
}

// checkAgainst compares every key through Get and one full scan of a
// fresh iterator with the model.
func (m foldModel) checkAgainst(db *DB, keys []string) error {
	it, err := db.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()
	for _, k := range keys {
		v, err := db.Get([]byte(k))
		want, live := m[k]
		switch {
		case live && (err != nil || !bytes.Equal(v, want)):
			return fmt.Errorf("Get(%s) = %q, %v; want %q", k, v, err, want)
		case !live && !errors.Is(err, ErrNotFound):
			return fmt.Errorf("Get(%s) = %q, %v; want not found", k, v, err)
		}
	}
	var live []string
	for k := range m {
		live = append(live, k)
	}
	sort.Strings(live)
	i := 0
	for it.SeekFirst(); it.Valid(); it.Next() {
		if i >= len(live) || string(it.Key()) != live[i] || !bytes.Equal(it.Value(), m[live[i]]) {
			return fmt.Errorf("scan entry %d = %s=%q, want %v", i, it.Key(), it.Value(), live[i:])
		}
		i++
	}
	if i != len(live) {
		return fmt.Errorf("scan ended after %d keys, want %v", i, live)
	}
	return nil
}

// pinView is what an iterator opened on a model may show while the model
// moves on (Iterator's promise): every key live since the iterator opened,
// exactly once; no key that has not been live since; and each key shown
// with a value it held since.
type pinView struct {
	it     *Iterator
	always map[string]bool            // live at every step since the pin
	held   map[string]map[string]bool // values held since the pin
}

func newPinView(it *Iterator, m foldModel, keys []string) *pinView {
	p := &pinView{it: it, always: map[string]bool{}, held: map[string]map[string]bool{}}
	for k := range m {
		p.always[k] = true
	}
	p.observe(m, keys)
	return p
}

// observe records the model's state after one more operation.
func (p *pinView) observe(m foldModel, keys []string) {
	for _, k := range keys {
		v, live := m[k]
		if !live {
			delete(p.always, k)
			continue
		}
		if p.held[k] == nil {
			p.held[k] = map[string]bool{}
		}
		p.held[k][string(v)] = true
	}
}

// check scans the pinned iterator once against what it may show.
func (p *pinView) check() error {
	var last string
	seen := 0
	for p.it.SeekFirst(); p.it.Valid(); p.it.Next() {
		k, v := string(p.it.Key()), string(p.it.Value())
		switch {
		case seen > 0 && k <= last:
			return fmt.Errorf("scan returned %s after %s", k, last)
		case !p.held[k][v]:
			return fmt.Errorf("scan returned %s=%q, which it never held since the pin", k, v)
		}
		if p.always[k] {
			seen++
		}
		last = k
	}
	if seen != len(p.always) {
		return fmt.Errorf("scan returned %d of the %d keys live since the pin", seen, len(p.always))
	}
	return nil
}

// TestMergeRunIteratorSkipsHotKey is the listing side of the cost pin: a
// file grown 10^5 times is one memtable entry beside its two siblings, and
// a readdir-shaped scan over the directory returns the three keys once
// each, the grown one with its folded value.
func TestMergeRunIteratorSkipsHotKey(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax, logBytes: 1 << 30})
	for _, k := range []string{"/d/a", "/d/c"} {
		if err := db.Put([]byte(k), u64(1)); err != nil {
			t.Fatal(err)
		}
	}
	const many = 100_000
	for i := 1; i <= many; i++ {
		if err := db.Merge([]byte("/d/b"), u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.mem.entries(); n != 3 {
		t.Fatalf("memtable holds %d entries for 3 keys", n)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var keys []string
	for it.SeekFirst(); it.Valid(); it.Next() {
		keys = append(keys, string(it.Key()))
		if string(it.Key()) == "/d/b" && !bytes.Equal(it.Value(), u64(many)) {
			t.Fatalf("/d/b = %v, want %d", it.Value(), many)
		}
	}
	if fmt.Sprint(keys) != "[/d/a /d/b /d/c]" {
		t.Fatalf("scan = %v", keys)
	}
}

// TestModelEquivalence drives seeded random put/delete/merge/batch
// sequences, interleaved with checkpoints (forced, and triggered by a tiny
// log) and reopens,
// against the reference left fold — with the non-commutative append
// merger, so a fold that reorders, repeats or drops an operand shows.
// Iterators opened along the way must keep Iterator's promise (pinView).
func TestModelEquivalence(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for s := int64(0); s < 8; s++ {
		seed := *foldSeed + s
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			fs := vfs.NewMem()
			opts := Options{FS: fs, Merger: appendMerger, logBytes: 2 << 10}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			model := foldModel{}
			var pins []*pinView
			apply := func(kind kind, key string, val []byte) {
				model.apply(kind, key, val)
				for _, p := range pins {
					p.observe(model, keys)
				}
			}
			closePins := func() {
				for _, p := range pins {
					p.it.Close()
				}
				pins = nil
			}
			defer closePins()

			next := 0
			val := func() []byte { next++; return []byte(fmt.Sprintf("%d.", next)) }
			randOp := func() entry {
				return entry{kind: []kind{kindPut, kindDelete, kindMerge, kindMerge, kindMerge, kindMerge}[rnd.Intn(6)],
					key: []byte(keys[rnd.Intn(len(keys))]), val: val()}
			}
			for step := 0; step < 1500; step++ {
				var err error
				r := rnd.Intn(100)
				switch {
				case r < 70:
					e := randOp()
					switch e.kind {
					case kindPut:
						err = db.Put(e.key, e.val)
					case kindDelete:
						err = db.Delete(e.key)
					case kindMerge:
						err = db.Merge(e.key, e.val)
					}
					apply(e.kind, string(e.key), e.val)
				case r < 85:
					// A batch; the first two ops are the put-then-merge on
					// one key of TestBatchOwnedVariantsRoundTrip.
					b := &Batch{}
					k := []byte(keys[rnd.Intn(len(keys))])
					ops := []entry{{kind: kindPut, key: k, val: val()}, {kind: kindMerge, key: k, val: val()}}
					for n := rnd.Intn(4); n > 0; n-- {
						ops = append(ops, randOp())
					}
					for _, e := range ops {
						switch e.kind {
						case kindPut:
							b.PutOwned(append([]byte(nil), e.key...), e.val)
						case kindDelete:
							b.Delete(e.key)
						case kindMerge:
							b.MergeOwned(append([]byte(nil), e.key...), e.val)
						}
						apply(e.kind, string(e.key), e.val)
					}
					err = db.Apply(b)
				case r < 94:
					err = db.checkpoint()
				case r < 96:
					closePins()
					if err = db.Close(); err == nil {
						db, err = Open(opts)
					}
				case len(pins) < 3:
					var it *Iterator
					if it, err = db.NewIterator(); err == nil {
						pins = append(pins, newPinView(it, model, keys))
					}
				}
				if err != nil {
					t.Fatalf("step %d (draw %d): %v", step, r, err)
				}
				if step%10 == 0 {
					if err := model.checkAgainst(db, keys); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for i, p := range pins {
						if err := p.check(); err != nil {
							t.Fatalf("step %d: pinned iterator %d: %v", step, i, err)
						}
					}
				}
			}
			if err := model.checkAgainst(db, keys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFoldConcurrency merges into one key from several writers while
// point readers, a PutIfAbsent/Update caller on the key's lock stripe and
// a long-lived iterator run, across checkpoints.
// No operand may be lost, repeated or reordered within its writer, and
// every scan of the iterator returns the two keys live throughout once
// each, with values they held.
func TestFoldConcurrency(t *testing.T) {
	const writers, perWriter = 4, 300
	db := openTestDB(t, Options{Merger: appendMerger, logBytes: 8 << 10})
	hot := []byte("hot")
	var sibling []byte // another key on hot's stripe
	for i := 0; sibling == nil; i++ {
		if k := []byte(fmt.Sprintf("sibling-%d", i)); keyStripe(k) == keyStripe(hot) {
			sibling = k
		}
	}
	if err := db.Put(hot, []byte{0xff, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("zz-pinned"), []byte("before")); err != nil {
		t.Fatal(err)
	}
	pinned, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()

	// perWriterOrder checks v is 3-byte operands whose counters, taken per
	// writer, run 1, 2, 3, ... without gap or repeat.
	perWriterOrder := func(v []byte) error {
		if len(v)%3 != 0 || len(v) < 3 || v[0] != 0xff {
			return fmt.Errorf("value of %d bytes is not the base plus whole operands", len(v))
		}
		var last [writers]int
		for i := 3; i < len(v); i += 3 {
			w, n := int(v[i]), int(v[i+1])<<8|int(v[i+2])
			if w >= writers || n != last[w]+1 {
				return fmt.Errorf("operand %d of writer %d follows %d", n, w, last[w])
			}
			last[w] = n
		}
		return nil
	}
	// scan checks one pass of the pinned iterator: hot and zz-pinned
	// exactly once, in order, with values they held; the stripe caller's
	// keys, born during the run, may show or not.
	scan := func() error {
		var got []string
		for pinned.SeekFirst(); pinned.Valid(); pinned.Next() {
			k, v := string(pinned.Key()), pinned.Value()
			switch {
			case k == string(hot):
				if err := perWriterOrder(v); err != nil {
					return fmt.Errorf("hot: %v", err)
				}
			case k == "zz-pinned":
				if string(v) != "before" {
					return fmt.Errorf("zz-pinned = %q", v)
				}
			case bytes.HasPrefix(pinned.Key(), []byte("fresh-")), k == string(sibling):
				continue
			default:
				return fmt.Errorf("scan returned %s, never written", k)
			}
			got = append(got, k)
		}
		if fmt.Sprint(got) != "[hot zz-pinned]" {
			return fmt.Errorf("scan returned %v of the keys live throughout, want [hot zz-pinned]", got)
		}
		return nil
	}

	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; n <= perWriter; n++ {
				if err := db.Merge(hot, []byte{byte(w), byte(n >> 8), byte(n)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var aux sync.WaitGroup
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func() { // point readers: every value seen is a consistent prefix
			defer aux.Done()
			for !done.Load() {
				v, err := db.Get(hot)
				if err == nil {
					err = perWriterOrder(v)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	updates := 0
	aux.Add(1)
	go func() { // the stripe's read-modify-write callers
		defer aux.Done()
		for i := 0; !done.Load(); i++ {
			err := db.Update(sibling, func(cur []byte, _ bool) ([]byte, bool, error) {
				return append(append([]byte(nil), cur...), 'u'), false, nil
			})
			if err == nil {
				updates++
				_, err = db.PutIfAbsent([]byte(fmt.Sprintf("fresh-%d", i)), []byte("x"))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	aux.Add(1)
	go func() { // the long-lived iterator
		defer aux.Done()
		for !done.Load() {
			if err := scan(); err != nil {
				t.Errorf("pinned iterator: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	done.Store(true)
	aux.Wait()

	v, err := db.Get(hot)
	if err != nil {
		t.Fatal(err)
	}
	if err := perWriterOrder(v); err != nil {
		t.Fatal(err)
	}
	if got := len(v)/3 - 1; got != writers*perWriter {
		t.Fatalf("final value holds %d operands, want %d", got, writers*perWriter)
	}
	if v, err := db.Get(sibling); err != nil || len(v) != updates {
		t.Fatalf("sibling holds %d updates (%v), want %d", len(v), err, updates)
	}
	if err := scan(); err != nil {
		t.Fatalf("pinned iterator after the run: %v", err)
	}
}
