package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded around a call into a layer. Times
// are nanoseconds since the tracer was created. Spans of one request share
// Req; Parent indexes the enclosing span in the same tracer (-1 = root).
type span struct {
	Name       string
	Req        int64
	Start, End int64
	Parent     int32
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run executes the same code minus the appends.
// One tracer belongs to one goroutine; merge folds them together afterwards.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// child returns a tracer sharing t's clock, for another goroutine.
func (t *tracer) child(capacity int) *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Start: int64(time.Since(t.t0)), Parent: parent})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// merge appends other's spans, re-basing their parent indexes.
func (t *tracer) merge(other *tracer) {
	if t == nil || other == nil {
		return
	}
	base := int32(len(t.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// sumByName adds up span durations per name.
func sumByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// write dumps the spans as one JSON array, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	self := selfTimes(t.spans)
	fmt.Fprintln(w, "[")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"i":%d,"name":%q,"req":%d,"start_ns":%d,"end_ns":%d,"parent":%d,"self_ns":%d}%s`+"\n",
			i, s.Name, s.Req, s.Start, s.End, s.Parent, self[i], sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
