package meta

import (
	"testing"
)

// TestTransitionRules pins each rule's outcome and the record it leaves,
// per starting state. (That the daemon reaches these — and only these —
// from both RPC framings is internal/daemon's equivalence table.)
func TestTransitionRules(t *testing.T) {
	file := Metadata{Mode: ModeRegular, Size: 50, CTimeNS: 1, MTimeNS: 2}
	dir := Metadata{Mode: ModeDir, CTimeNS: 1, MTimeNS: 1}
	states := map[string]Record{
		"absent": {},
		"file":   {Meta: file, Exists: true},
		"dir":    {Meta: dir, Exists: true},
	}
	for _, tc := range []struct {
		state, rule string
		apply       func(r *Record) Outcome
		want        Outcome
		after       Record // the record the rule leaves
	}{
		{"absent", "create", func(r *Record) Outcome { return r.Create(ModeRegular, 9) }, Put,
			Record{Meta: Metadata{Mode: ModeRegular, CTimeNS: 9, MTimeNS: 9}, Exists: true}},
		{"file", "create", func(r *Record) Outcome { return r.Create(ModeRegular, 9) }, Exists, states["file"]},
		{"absent", "remove", func(r *Record) Outcome { _, o := r.Remove(false); return o }, NotExist, Record{}},
		{"file", "remove", func(r *Record) Outcome { _, o := r.Remove(true); return o }, Delete, Record{}},
		{"dir", "remove file-only", func(r *Record) Outcome { _, o := r.Remove(true); return o }, IsDir, states["dir"]},
		{"dir", "remove any", func(r *Record) Outcome { _, o := r.Remove(false); return o }, Delete, Record{}},
		{"absent", "truncate", func(r *Record) Outcome { return r.Truncate(7, 9) }, NotExist, Record{}},
		{"dir", "truncate", func(r *Record) Outcome { return r.Truncate(7, 9) }, IsDir, states["dir"]},
		{"file", "truncate", func(r *Record) Outcome { return r.Truncate(7, 9) }, Put,
			Record{Meta: Metadata{Mode: ModeRegular, Size: 7, CTimeNS: 1, MTimeNS: 9}, Exists: true}},
		{"dir", "grow", func(r *Record) Outcome { return r.Grow(70, 9) }, IsDir, states["dir"]},
		{"absent", "grow", func(r *Record) Outcome { return r.Grow(70, 9) }, Put,
			Record{Meta: Metadata{Mode: ModeRegular, Size: 70, MTimeNS: 9}, Exists: true}},
	} {
		t.Run(tc.state+"/"+tc.rule, func(t *testing.T) {
			r := states[tc.state]
			if got := tc.apply(&r); got != tc.want || r != tc.after {
				t.Fatalf("outcome %d leaving %+v, want outcome %d leaving %+v", got, r, tc.want, tc.after)
			}
		})
	}
	// Remove reports the state the path had.
	r := states["file"]
	if was, _ := r.Remove(false); was != file {
		t.Fatalf("remove reported %+v, want %+v", was, file)
	}
}
