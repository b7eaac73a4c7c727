package telemetry

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
)

// A counter some component already keeps in a struct of its own is
// declared once, on the field:
//
//	Ops  uint64 `metric:"gkfs_<tier>_ops_total"`
//	Open uint64 `metric:"gkfs_<tier>_open,gauge"`
//
// Everything else — the snapshot entry, the cluster total, the catalog
// line, the typed view a client rebuilds — is derived from the tag by the
// functions below. They reflect, once per type, and run only where a
// snapshot is taken or read; the owner bumps the field itself.

// metricField is one tagged uint64 field of a stats struct.
type metricField struct {
	name  string
	gauge bool
	index int
}

var fieldCache sync.Map // reflect.Type → []metricField

// fieldsOf returns the metric declarations of the struct v points to (or
// is), and the addressable struct value when v is a pointer.
func fieldsOf(v any) ([]metricField, reflect.Value) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	t := rv.Type()
	if cached, ok := fieldCache.Load(t); ok {
		return cached.([]metricField), rv
	}
	var fields []metricField
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		name, kind, _ := strings.Cut(tag, ",")
		fields = append(fields, metricField{name: name, gauge: kind == "gauge", index: i})
	}
	fieldCache.Store(t, fields)
	return fields, rv
}

// FieldNames returns the metric names v's struct type declares, in field
// order.
func FieldNames(v any) []string {
	fields, _ := fieldsOf(v)
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.name
	}
	return names
}

// AddFields adds every tagged field of *src into the same field of *dst,
// both pointers to one stats struct type. src's fields are loaded
// atomically, so it may be a live struct its owner is still bumping.
func AddFields(dst, src any) {
	fields, d := fieldsOf(dst)
	_, s := fieldsOf(src)
	for _, f := range fields {
		p := d.Field(f.index).Addr().Interface().(*uint64)
		*p += atomic.LoadUint64(s.Field(f.index).Addr().Interface().(*uint64))
	}
}

// Fold sets s's entry for every tagged field of v's struct: counters by
// default, gauges where the tag says so. s is a snapshot a Registry made
// (a collector's argument): its maps exist.
func (s *Snapshot) Fold(v any) {
	fields, rv := fieldsOf(v)
	for _, f := range fields {
		if n := rv.Field(f.index).Uint(); f.gauge {
			s.Gauges[f.name] = int64(n)
		} else {
			s.Counters[f.name] = n
		}
	}
}

// View is Fold's inverse: it sets every tagged field of *v from s's
// entry of that name (zero when s has none). Names s carries that the
// struct does not declare are ignored — they stay readable in s.
func (s Snapshot) View(v any) {
	fields, rv := fieldsOf(v)
	for _, f := range fields {
		if f.gauge {
			rv.Field(f.index).SetUint(uint64(s.Gauges[f.name]))
		} else {
			rv.Field(f.index).SetUint(s.Counters[f.name])
		}
	}
}
