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

// The bounded-merge-run invariant (fold.go): tests for its cost, its
// equivalence to a plain left fold, and its behaviour under concurrency.
// Everything random here is drawn from -fold.seed.
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

// visitedBy returns how many versions chain folds examined while fn ran.
// The store must be otherwise idle.
func visitedBy(db *DB, fn func()) uint64 {
	before := db.visited.Load()
	fn()
	return db.visited.Load() - before
}

// TestFoldAllocs pins what a point read allocates: a hit in the active
// memtable costs the returned value and nothing else, whether the key was
// put or merged onto a put; a hit in an L0 table adds only the block read
// and decode.
func TestFoldAllocs(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax})
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("l0-%03d", i)), u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
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
	if _, err := db.Get([]byte("l0-050")); err != nil { // open the table reader
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		key  []byte
		max  float64
	}{
		{"memtable-put", []byte("put"), 1},
		{"memtable-merge-on-put", []byte("merged"), 1},
		// The block buffer, the decoded entries (a slice grown by append)
		// and the value.
		{"L0-put", []byte("l0-050"), 12},
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

// pointOps are the read paths whose cost the invariant bounds.
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

// TestMergeRunCostPin is the cost pin for the bounded merge run: after
// 10⁵ merges into one key every point operation examines at most
// mergeRunBound+1 versions and allocates what it does after 10 merges —
// in the memtable, after a flush, after a full compaction and after a
// reopen that replays the whole un-flushed log. Counts, not wall time.
func TestMergeRunCostPin(t *testing.T) {
	key := []byte("/shared/file")
	load := func(t *testing.T, fs vfs.FS, n int) *DB {
		// One memtable holds everything, so close leaves it all in the log.
		db := openTestDB(t, Options{FS: fs, Merger: sizeMax, MemTableBytes: 1 << 30})
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
			if n := visitedBy(big, func() { op.run(t, big, key) }); n > mergeRunBound+1 {
				t.Errorf("%s: %s examined %d versions after %d merges, want <= %d", phase, op.name, n, many, mergeRunBound+1)
			}
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
	check("memtable")

	st := big.Stats()
	if st.Merges != many || st.MergeFolds != many-(mergeRunBound-1) || st.MergeResolves != 1 {
		t.Errorf("stats after %d merges: %d merges, %d folds, %d resolves; want all but the first %d folded and one resolve",
			many, st.Merges, st.MergeFolds, st.MergeResolves, mergeRunBound-1)
	}

	// Reopen first, while the log still holds every operand: replay goes
	// through the same insert path, and the recovery flush writes the hot
	// key as one record.
	for _, db := range []*DB{small, big} {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	small = openTestDB(t, Options{FS: smallFS, Merger: sizeMax})
	big = openTestDB(t, Options{FS: bigFS, Merger: sizeMax})
	if st := big.Stats(); st.TablesPerLevel[0] != 1 {
		t.Fatalf("tables after recovery = %v, want one L0 table", st.TablesPerLevel)
	}
	if n := big.vers.levels[0][0].entries; n != 1 {
		t.Errorf("recovery flush wrote %d records for one key, want 1", n)
	}
	check("reopen")

	for _, db := range []*DB{small, big} {
		if err := db.Merge(key, u64(5)); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	check("flush")

	for _, db := range []*DB{small, big} {
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	check("compact")
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

// checkAgainst compares every key through Get and one full scan of it
// (nil: a fresh iterator) with the model.
func (m foldModel) checkAgainst(db *DB, it *Iterator, keys []string) error {
	if it == nil {
		var err error
		if it, err = db.NewIterator(); err != nil {
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

// TestMergeRunIteratorSkipsHotKey is the listing side of the cost pin: a
// file grown 10^5 times leaves 10^5 shadowed versions of its key in the
// memtable, and Next past it — a readdir over its directory — takes a
// constant number of steps, not one per version, while Next past a key
// with one version costs the one step it always did.
func TestMergeRunIteratorSkipsHotKey(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax, MemTableBytes: 1 << 30, DisableWAL: true})
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
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var keys []string
	var steps []int
	for it.SeekFirst(); it.Valid(); {
		keys = append(keys, string(it.Key()))
		if string(it.Key()) == "/d/b" && !bytes.Equal(it.Value(), u64(many)) {
			t.Fatalf("/d/b = %v, want %d", it.Value(), many)
		}
		before := it.it.steps
		it.Next()
		steps = append(steps, it.it.steps-before)
	}
	if fmt.Sprint(keys) != "[/d/a /d/b /d/c]" {
		t.Fatalf("scan = %v", keys)
	}
	// Past /d/a: settle takes /d/b's newest version. Past /d/b: one step
	// and one seek leave its shadowed versions, settle takes /d/c.
	if steps[0] != 1 || steps[1] > 3 {
		t.Fatalf("Next past a one-version key took %d steps, past a key with %d versions %d; want 1 and at most 3", steps[0], many, steps[1])
	}
}

// TestModelEquivalence drives seeded random put/delete/merge/batch
// sequences, interleaved with rotations, flushes, compactions and reopens,
// against the reference left fold — with the non-commutative append
// merger, so a fold that reorders, repeats or drops an operand shows.
// Iterators opened along the way must keep scanning the state they were
// opened on.
func TestModelEquivalence(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for s := int64(0); s < 8; s++ {
		seed := *foldSeed + s
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			fs := vfs.NewMem()
			opts := Options{FS: fs, Merger: appendMerger, MemTableBytes: 2 << 10, TargetFileBytes: 1 << 10, L0CompactTrigger: 2}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			model := foldModel{}
			type pinned struct {
				it    *Iterator
				model foldModel
			}
			var pins []pinned
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
					model.apply(e.kind, string(e.key), e.val)
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
						model.apply(e.kind, string(e.key), e.val)
					}
					err = db.Apply(b)
				case r < 89:
					db.mu.Lock()
					err = db.rotateMemLocked()
					db.mu.Unlock()
				case r < 92:
					err = db.Flush()
				case r < 94:
					err = db.CompactAll()
				case r < 96:
					closePins()
					if err = db.Close(); err == nil {
						db, err = Open(opts)
					}
				case len(pins) < 3:
					var it *Iterator
					if it, err = db.NewIterator(); err == nil {
						pins = append(pins, pinned{it, model.clone()})
					}
				}
				if err != nil {
					t.Fatalf("step %d (draw %d): %v", step, r, err)
				}
				if step%10 == 0 {
					if err := model.checkAgainst(db, nil, keys); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for i, p := range pins {
						if err := p.model.checkAgainst(db, p.it, keys); err != nil {
							t.Fatalf("step %d: pinned iterator %d: %v", step, i, err)
						}
					}
				}
			}
			if err := model.checkAgainst(db, nil, keys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFoldConcurrency merges into one key from several writers while
// point readers, a PutIfAbsent/Update caller on the key's lock stripe and
// a long-lived iterator run, across rotations, flushes and compactions.
// No operand may be lost, repeated or reordered within its writer, and
// the iterator's view never changes.
func TestFoldConcurrency(t *testing.T) {
	const writers, perWriter = 4, 300
	db := openTestDB(t, Options{Merger: appendMerger, MemTableBytes: 8 << 10, L0CompactTrigger: 2})
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
	scan := func() string {
		var sb bytes.Buffer
		for pinned.SeekFirst(); pinned.Valid(); pinned.Next() {
			fmt.Fprintf(&sb, "%s=%x;", pinned.Key(), pinned.Value())
		}
		return sb.String()
	}
	want := scan()

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
			if got := scan(); got != want {
				t.Errorf("pinned iterator's view changed:\n got %s\nwant %s", got, want)
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
	if got := scan(); got != want {
		t.Fatalf("pinned iterator's view changed after the run:\n got %s\nwant %s", got, want)
	}
}
