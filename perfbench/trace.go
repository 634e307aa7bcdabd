package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run.  Spans of one op share
// Op; Parent is the ID of the enclosing span (0 at the root).  N is a
// count of work done inside the span: optimizer evaluations or
// simulated patterns.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// opSpan names the root span runCall opens around every traced call.
const opSpan = "op"

// tracer keeps the spans of a traced run in memory; they are written
// out once the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

type spanRef struct {
	tr *tracer
	op int64
	id int
}

// begin opens a span and returns its ID.
func (t *tracer) begin(op int64, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now})
	return id
}

// end closes span id, recording n units of work.
func (t *tracer) end(id int, n int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// startOp opens the root span of a new op and returns a context that
// nests the op's spans under it.
func (t *tracer) startOp(ctx context.Context) (context.Context, int) {
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	id := t.begin(op, 0, opSpan)
	return context.WithValue(ctx, spanKey{}, spanRef{t, op, id}), id
}

// timed runs fn, as a child span of ctx's op when ctx is traced.  fn
// returns the work count recorded on the span.
func timed(ctx context.Context, name string, fn func() (int64, error)) error {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		_, err := fn()
		return err
	}
	id := ref.tr.begin(ref.op, ref.id, name)
	n, err := fn()
	ref.tr.end(id, n)
	return err
}

// side returns a context whose timed spans are recorded at the root,
// outside any op: layer calls the benchmark makes on its own.
func (t *tracer) side(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{tr: t})
}

// layerStats aggregates the spans by name: self time (a span's
// duration minus the part its children cover), call count and work
// count.
type layerStats struct {
	self  map[string]time.Duration
	calls map[string]int
	n     map[string]int64
	ops   int
	opDur time.Duration
}

func (t *tracer) stats() layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ls := layerStats{self: map[string]time.Duration{}, calls: map[string]int{}, n: map[string]int64{}}
	for _, s := range t.spans {
		ls.self[s.Name] += s.dur() - covered(s, children[s.ID])
		ls.calls[s.Name]++
		ls.n[s.Name] += s.N
		if s.Name == opSpan {
			ls.ops++
			ls.opDur += s.dur()
		}
	}
	return ls
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return time.Duration(total)
}

// sum adds up self time and work over every span whose name has the
// given prefix.
func (ls layerStats) sum(prefix string) (self time.Duration, n int64) {
	for name, d := range ls.self {
		if strings.HasPrefix(name, prefix) {
			self += d
			n += ls.n[name]
		}
	}
	return self, n
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
