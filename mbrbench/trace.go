package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one recorded call: the benchmark wraps every public call it makes
// into a layer in one span. Parent is the enclosing span's ID (0 = root);
// Op groups the spans of one workload op (one HTTP request pair, one
// compose pass, one round). Kind refines the name where the callee decides
// the work at run time (sta.Run: "full" or "incremental").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	SelfNS int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// allocSample reads the process-wide cumulative heap allocation counter.
// Spans on concurrent goroutines see each other's allocations; the figure
// is exact only for spans that run alone.
func allocSample() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// do runs fn inside a span and returns the span's ID (0 when untraced).
func (t *tracer) do(name string, parent int, op int64, fn func() error) (int, error) {
	return t.nest(name, parent, op, func(int) error { return fn() })
}

// nest is do for a span that encloses others: fn receives the span's ID to
// pass as their parent.
func (t *tracer) nest(name string, parent int, op int64, fn func(id int) error) (int, error) {
	if t == nil {
		return 0, fn(0)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	t.mu.Unlock()
	a0 := allocSample()
	start := time.Since(t.t0).Nanoseconds()
	err := fn(id)
	end := time.Since(t.t0).Nanoseconds()
	a1 := allocSample()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Start, s.End, s.Alloc = start, end, a1-a0
	t.mu.Unlock()
	return id, err
}

// setKind labels a finished span.
func (t *tracer) setKind(id int, kind string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Kind = kind
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part of
// its interval its children cover.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, cur), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.SelfNS = s.End - s.Start - covered
	}
	return t.spans
}

// layerStat aggregates the self time of every span with one name and kind.
type layerStat struct {
	Count  int   `json:"count"`
	SelfNS int64 `json:"self_ns"`
	AllocB int64 `json:"alloc_bytes"`
}

// meanMS is the mean self time per call in milliseconds.
func (l layerStat) meanMS() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SelfNS) / float64(l.Count) / 1e6
}

// aggregate groups spans by "name" and "name/kind".
func aggregate(spans []span) map[string]layerStat {
	out := make(map[string]layerStat)
	add := func(key string, s span) {
		l := out[key]
		l.Count++
		l.SelfNS += s.SelfNS
		l.AllocB += int64(s.Alloc)
		out[key] = l
	}
	for _, s := range spans {
		add(s.Name, s)
		if s.Kind != "" {
			add(s.Name+"/"+s.Kind, s)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
