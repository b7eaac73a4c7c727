// Log-linear latency histogram: fixed footprint, lock-free record
// path, mergeable snapshots with percentile extraction. The bucket
// layout is the HdrHistogram family's: values below 2^histSubBits map
// one-to-one to buckets (exact), and every later power-of-two range is
// split into 2^histSubBits equal sub-buckets, bounding the relative
// quantization error at 1/2^(histSubBits+1) — ~3.1% here — while the
// whole uint64 range fits in under a thousand buckets.
package telemetry

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubBits is the sub-bucket resolution: each power-of-two range
	// holds 2^histSubBits buckets.
	histSubBits = 4
	histSubs    = 1 << histSubBits // sub-buckets per power-of-two range

	// histBuckets covers all of uint64: the histSubs exact values, then
	// 16 sub-buckets for each exponent 4..63.
	histBuckets = histSubs + (64-histSubBits)*histSubs // 976

	// HistBucketCount is the fixed layout size, exported so wire
	// decoders can reject snapshots claiming impossible bucket indexes.
	HistBucketCount = histBuckets
)

// Histogram accumulates a latency distribution (nanoseconds by
// convention). Record is a bounded handful of atomic adds with no
// locks and no allocation; Snapshot extracts a mergeable sparse copy.
// The footprint is fixed (~7.8 KiB) regardless of volume. Safe for
// concurrent use; safe (inert) on a nil receiver.
type Histogram struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket. Values 0..15 are exact; a
// larger value v with top bit e keeps its histSubBits bits below the
// top bit, landing in sub-bucket (v >> (e-histSubBits)) & (histSubs-1)
// of exponent group e.
func bucketIndex(v uint64) int {
	if v < histSubs {
		return int(v)
	}
	e := bits.Len64(v) - 1 // 4..63
	sub := int(v>>(uint(e)-histSubBits)) & (histSubs - 1)
	return histSubs + (e-histSubBits)*histSubs + sub
}

// bucketBounds returns the closed value range [lo, hi] of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < histSubs {
		return uint64(i), uint64(i)
	}
	g := uint(i-histSubs) >> histSubBits // exponent group: e - histSubBits
	sub := uint64(i-histSubs) & (histSubs - 1)
	lo = (histSubs + sub) << g
	width := uint64(1) << g
	return lo, lo + width - 1
}

// bucketMid returns the representative value of bucket i (the range
// midpoint), the value Quantile reports for samples in the bucket.
func bucketMid(i int) uint64 {
	lo, hi := bucketBounds(i)
	return lo + (hi-lo)/2
}

// Observe records one value. Negative durations (clock steps) record
// as zero. Safe on a nil receiver: a single branch, no allocation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	u := uint64(v)
	if v < 0 {
		u = 0
	}
	h.sum.Add(u)
	h.buckets[bucketIndex(u)].Add(1)
}

// ObserveSince records the elapsed nanoseconds since t0 — the common
// call at the end of a timed section. Safe on a nil receiver; the
// disabled path does not read the clock.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(t0)))
}

// HistBucket is one occupied bucket of a snapshot.
type HistBucket struct {
	// Index is the bucket's position in the fixed log-linear layout.
	Index uint32 `json:"i"`
	// Count is the number of samples recorded in the bucket.
	Count uint64 `json:"n"`
}

// HistSnapshot is a point-in-time copy of a histogram: only occupied
// buckets, in ascending index order. Snapshots merge associatively
// (Merge), travel over the stats RPC (proto.EncodeHistSnapshot) and
// JSON-encode as a summary document with p50/p95/p99/p999.
type HistSnapshot struct {
	// Count and Sum are the totals over all buckets. Count is derived
	// from the buckets so one snapshot is self-consistent even when
	// records land mid-copy.
	Count uint64
	Sum   uint64
	// Buckets holds the occupied buckets, ascending by Index.
	Buckets []HistBucket
}

// Snapshot copies the occupied buckets. Records running concurrently
// may or may not be included. Safe on a nil receiver (empty snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistBucket{Index: uint32(i), Count: n})
		s.Count += n
	}
	return s
}

// Quantile returns the value at quantile q in [0, 1] — the midpoint of
// the bucket holding the q-th sample, within the layout's ~3.1%
// relative error. An empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based; q=0 means the first sample.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return bucketMid(int(b.Index))
		}
	}
	return bucketMid(int(s.Buckets[len(s.Buckets)-1].Index))
}

// Mean returns the arithmetic mean of the recorded values (0 when
// empty). Unlike quantiles it is exact: Sum is accumulated from the
// raw values.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Merge folds o into s. Merging is associative and commutative, so
// per-daemon snapshots fold into cluster-wide distributions in any
// order — the property that lets gkfs-shell aggregate a deployment.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Count = o.Count
		s.Sum = o.Sum
		s.Buckets = append([]HistBucket(nil), o.Buckets...)
		return
	}
	merged := make([]HistBucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Index < o.Buckets[j].Index):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Index < s.Buckets[i].Index:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, HistBucket{Index: s.Buckets[i].Index, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
	s.Count += o.Count
	s.Sum += o.Sum
}

// histSummary is the JSON shape of a histogram: the summary document
// shared by /statz and `gkfs-shell stats -json`.
// Values are nanoseconds.
type histSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
}

// MarshalJSON implements json.Marshaler, rendering the summary
// document rather than raw buckets.
func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(histSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	})
}
