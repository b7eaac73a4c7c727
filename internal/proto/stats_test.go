package proto

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// sampleSnapshot is a small honest OpStats body: two counters, a gauge,
// one histogram with samples and one without.
func sampleSnapshot() telemetry.Snapshot {
	var h telemetry.Histogram
	h.Observe(1500)
	h.Observe(90000)
	return telemetry.Snapshot{
		Counters: map[string]uint64{"gkfs_a_total": 7, "gkfs_b_total": 1 << 40},
		Gauges:   map[string]int64{"gkfs_level": -3},
		Hists:    map[string]telemetry.HistSnapshot{"gkfs_idle_ns": {Buckets: []telemetry.HistBucket{}}, "gkfs_op_ns": h.Snapshot()},
	}
}

func encodeSnapshot(s telemetry.Snapshot) []byte {
	e := rpc.NewEnc(256)
	EncodeSnapshot(e, s)
	return e.Bytes()
}

// TestDaemonStatsViewRoundTrip: typed view → snapshot → wire → snapshot →
// typed view is the identity, and a counter this build does not know is
// ignored by the typed view but kept in the snapshot.
func TestDaemonStatsViewRoundTrip(t *testing.T) {
	var st DaemonStats
	rv := reflect.ValueOf(&st).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetUint(uint64(1000 + i)) // distinct per field
	}
	s := telemetry.NewRegistry().Snapshot()
	s.Fold(st)
	if len(s.Counters) != rv.NumField() {
		t.Fatalf("folded %d counters from %d fields — an untagged or doubly named field", len(s.Counters), rv.NumField())
	}
	s.Counters["gkfs_daemon_from_the_future_total"] = 5

	d := rpc.NewDec(encodeSnapshot(s))
	got := DecodeSnapshot(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("snapshot changed across the wire:\n got %+v\nwant %+v", got, s)
	}
	if view := DaemonStatsOf(got); view != st {
		t.Fatalf("typed view changed across the wire:\n got %+v\nwant %+v", view, st)
	}
	if got.Counters["gkfs_daemon_from_the_future_total"] != 5 {
		t.Fatal("unknown counter dropped from the decoded snapshot")
	}

	var sum DaemonStats
	sum.Add(st)
	sum.Add(st)
	if sum.Creates != 2*st.Creates || sum.ShmCalls != 2*st.ShmCalls {
		t.Fatalf("Add = %+v", sum)
	}
}

// hostileSnapshots are OpStats bodies no honest daemon sends, each with
// the typed error its decode must end in. FuzzDecodeSnapshot starts from
// the same rows.
func hostileSnapshots() []struct {
	name string
	body []byte
	want error
} {
	good := encodeSnapshot(sampleSnapshot())
	enc := func(build func(e *rpc.Enc)) []byte {
		e := rpc.NewEnc(64)
		build(e)
		return e.Bytes()
	}
	empty := func(e *rpc.Enc) { e.U32(0) } // one empty section
	long := make([]byte, MaxMetricName+1)
	for i := range long {
		long[i] = 'x'
	}
	// Section boundaries of the good body: after the counters, after the
	// gauges (the end of the histograms is the end of the body).
	afterCounters := len(enc(func(e *rpc.Enc) { e.U32(2).Str("gkfs_a_total").U64(0).Str("gkfs_b_total").U64(0) }))
	afterGauges := afterCounters + len(enc(func(e *rpc.Enc) { e.U32(1).Str("gkfs_level").I64(0) }))
	return []struct {
		name string
		body []byte
		want error
	}{
		{"empty body", nil, rpc.ErrTruncated},
		{"cut inside the counter count", good[:2], rpc.ErrTruncated},
		{"cut inside a counter value", good[:afterCounters-3], rpc.ErrTruncated},
		{"cut after the counters", good[:afterCounters], rpc.ErrTruncated},
		{"cut after the gauges", good[:afterGauges], rpc.ErrTruncated},
		{"cut inside the last histogram", good[:len(good)-5], rpc.ErrMalformed},
		{"counter count larger than the body", enc(func(e *rpc.Enc) { e.U32(1 << 31).Str("gkfs_a_total").U64(1) }), rpc.ErrMalformed},
		{"count of 2^32-1 on an empty body", enc(func(e *rpc.Enc) { e.U32(^uint32(0)) }), rpc.ErrMalformed},
		{"histogram count larger than the body", enc(func(e *rpc.Enc) { empty(e); empty(e); e.U32(1 << 30) }), rpc.ErrMalformed},
		{"bucket count larger than the body", enc(func(e *rpc.Enc) { empty(e); empty(e); e.U32(1).Str("gkfs_op_ns").U64(0).U32(1 << 30) }), rpc.ErrMalformed},
		{"names out of order", enc(func(e *rpc.Enc) { e.U32(2).Str("gkfs_b_total").U64(1).Str("gkfs_a_total").U64(1); empty(e); empty(e) }), rpc.ErrMalformed},
		{"a name twice", enc(func(e *rpc.Enc) { e.U32(2).Str("gkfs_a_total").U64(1).Str("gkfs_a_total").U64(2); empty(e); empty(e) }), rpc.ErrMalformed},
		{"an empty name", enc(func(e *rpc.Enc) { e.U32(1).Str("").U64(1); empty(e); empty(e) }), rpc.ErrMalformed},
		{"an over-long name", enc(func(e *rpc.Enc) { empty(e); e.U32(1).Str(string(long)).I64(1); empty(e) }), rpc.ErrMalformed},
		{"trailing bytes", append(append([]byte(nil), good...), 0), rpc.ErrMalformed},
	}
}

// TestDecodeSnapshotHostile feeds the one OpStats decoder each hostile
// body. Every one must end in its typed error and an empty Snapshot —
// never a partial document a caller would act on — and a claimed count
// must be refused before anything is allocated for it: the absurd counts
// above would otherwise take gigabytes.
func TestDecodeSnapshotHostile(t *testing.T) {
	for _, tc := range hostileSnapshots() {
		t.Run(tc.name, func(t *testing.T) {
			var s telemetry.Snapshot
			var err error
			allocs := testing.AllocsPerRun(10, func() {
				d := rpc.NewDec(tc.body)
				s = DecodeSnapshot(d)
				err = d.Done()
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if d := rpc.NewDec(tc.body); tc.name != "trailing bytes" {
				if DecodeSnapshot(d); d.Err() == nil {
					t.Fatal("decode itself accepted the body; only Done caught it")
				}
				if s.Counters != nil || s.Gauges != nil || s.Hists != nil {
					t.Fatalf("poisoned decode still returned %+v", s)
				}
			}
			if allocs > 40 {
				t.Fatalf("%v allocations decoding a %d-byte hostile body", allocs, len(tc.body))
			}
		})
	}
	// The honest body decodes whole.
	d := rpc.NewDec(encodeSnapshot(sampleSnapshot()))
	if got := DecodeSnapshot(d); d.Done() != nil || !reflect.DeepEqual(got, sampleSnapshot()) {
		t.Fatalf("honest body: %+v, err %v", got, d.Done())
	}
}

// FuzzDecodeSnapshot throws hostile OpStats bodies at the snapshot
// decoder: no panic, nothing decoded out of a poisoned frame, no more
// entries than the frame has bytes for, and an accepted frame re-encodes
// to a fixed point (names ascending make the encoding canonical).
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(sampleSnapshot()))
	for _, tc := range hostileSnapshots() {
		f.Add(tc.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := rpc.NewDec(data)
		s := DecodeSnapshot(d)
		if d.Done() != nil {
			if d.Err() != nil && (s.Counters != nil || s.Gauges != nil || s.Hists != nil) {
				t.Fatal("poisoned decode still returned a snapshot")
			}
			return
		}
		if n := len(s.Counters) + len(s.Gauges) + len(s.Hists); n*10 > len(data) {
			t.Fatalf("decoded %d entries from a %d-byte frame", n, len(data))
		}
		for name := range s.Counters {
			if name == "" || len(name) > MaxMetricName {
				t.Fatalf("name %q survived decode", name)
			}
		}
		re := encodeSnapshot(s)
		rd := rpc.NewDec(re)
		got := DecodeSnapshot(rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("re-encode does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("snapshot changed across re-encode:\n got %+v\nwant %+v", got, s)
		}
		if again := encodeSnapshot(got); string(again) != string(re) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
