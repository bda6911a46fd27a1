package obs

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultSampleEvery traces 1 in every 64 unforced requests — cheap
	// enough to leave on in production while keeping the ring representative.
	DefaultSampleEvery = 64
	// DefaultRingCapacity is how many recent traces the tracer retains.
	DefaultRingCapacity = 64
	// DefaultMaxSpans caps the spans recorded per trace; a clique run can
	// emit a superstep span per simulated round, and an unbounded trace would
	// turn one big request into a memory leak. Excess spans are counted in
	// TraceSnapshot.DroppedSpans, never silently lost.
	DefaultMaxSpans = 2048
)

// Tracer hands out Traces under a 1-in-N sampling policy and retains the
// most recent ones in a fixed ring for the /v1/traces endpoint. All methods
// are safe for concurrent use and safe on a nil receiver (a nil *Tracer
// never samples and snapshots to nothing).
type Tracer struct {
	every    int // <= 0: unforced sampling disabled
	maxSpans int

	seq    atomic.Uint64 // unforced Start attempts, drives the 1-in-every policy
	idSeq  atomic.Uint64
	idBase uint64

	recorded atomic.Int64

	mu   sync.Mutex
	ring []*Trace
	next int
}

// NewTracer returns a tracer sampling 1 in every `sampleEvery` unforced
// Start calls (0: DefaultSampleEvery; negative: unforced sampling disabled —
// StartForced still traces) and retaining ringCapacity recent traces
// (<= 0: DefaultRingCapacity).
func NewTracer(sampleEvery, ringCapacity int) *Tracer {
	if sampleEvery == 0 {
		sampleEvery = DefaultSampleEvery
	}
	if ringCapacity <= 0 {
		ringCapacity = DefaultRingCapacity
	}
	return &Tracer{
		every:    sampleEvery,
		maxSpans: DefaultMaxSpans,
		idBase:   uint64(time.Now().UnixNano()),
		ring:     make([]*Trace, ringCapacity),
	}
}

// Recorded reports how many traces have been recorded into the ring since
// construction (sampled and forced alike).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// NewID mints a process-unique trace/request ID.
func (t *Tracer) NewID() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%x-%x", t.idBase, t.idSeq.Add(1))
}

// Start begins a trace if the sampling policy selects this call (the first
// call is always selected, so smoke tests and fresh processes have a trace
// to show). It returns nil when sampled out — every downstream span call is
// nil-safe, so callers thread the result unconditionally.
func (t *Tracer) Start(name string) *Trace {
	if t == nil || t.every <= 0 {
		return nil
	}
	if (t.seq.Add(1)-1)%uint64(t.every) != 0 {
		return nil
	}
	return t.record(name, t.NewID())
}

// StartForced begins a trace unconditionally — the path for requests that
// carry an explicit X-Request-ID, which is a caller asking to be traced. An
// empty id mints one. Forced tracing works even when unforced sampling is
// disabled.
func (t *Tracer) StartForced(name, id string) *Trace {
	if t == nil {
		return nil
	}
	if id == "" {
		id = t.NewID()
	}
	return t.record(name, id)
}

// record creates the trace and publishes it into the ring immediately, so
// in-flight requests are visible to /v1/traces (snapshots mark them
// incomplete until Finish).
func (t *Tracer) record(name, id string) *Trace {
	tr := &Trace{id: id, name: name, start: time.Now(), maxSpans: t.maxSpans}
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
	t.recorded.Add(1)
	return tr
}

// Snapshot returns up to limit recent traces, most recent first (limit <= 0:
// the whole ring).
func (t *Tracer) Snapshot(limit int) []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ordered := make([]*Trace, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		tr := t.ring[(t.next-1-i+2*len(t.ring))%len(t.ring)]
		if tr == nil {
			break
		}
		ordered = append(ordered, tr)
	}
	t.mu.Unlock()
	if limit > 0 && len(ordered) > limit {
		ordered = ordered[:limit]
	}
	out := make([]TraceSnapshot, len(ordered))
	for i, tr := range ordered {
		out[i] = tr.snapshot()
	}
	return out
}

// maxAttrs is the number of integer attributes one span can carry.
// Integer-valued attributes cover everything the sampling path reports
// (rounds, words, indices, hit flags) without interface boxing.
const maxAttrs = 4

// spanRec is one recorded span, stored flat in the trace (offsets from the
// trace start, a fixed attribute array) to keep tracing allocation-lean:
// appending a span moves no pointers and boxes nothing. An attribute's key
// is an index into the trace's interned key list, so a record is 72 bytes,
// and a full trace of DefaultMaxSpans spans about 144 KB of live heap.
type spanRec struct {
	name       string
	start, end time.Duration
	vals       [maxAttrs]int64
	keys       [maxAttrs]uint8
	nattrs     uint8
	done       bool
}

// Trace is one sampled request's span collection. Create via Tracer; nil
// Traces are valid everywhere and record nothing.
type Trace struct {
	id       string
	name     string
	start    time.Time
	maxSpans int

	// full flips once the span cap is hit so the post-cap path is a single
	// atomic load — a traced clique run can attempt tens of thousands of
	// charge spans past the cap, and paying the mutex for each would make
	// the one-in-N traced request measurably slower than its peers.
	full    atomic.Bool
	dropped atomic.Int64

	mu    sync.Mutex
	spans []spanRec
	// keys interns the attribute keys of every span in the trace; a
	// spanRec refers to them by index. At most 256 distinct keys fit.
	keys     []string
	finished bool
	dur      time.Duration
}

// ID returns the trace's request/trace ID ("" on a nil trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// StartSpan opens a span at the current instant. On a nil trace (or once
// the per-trace span cap is hit) it returns the inert zero Span.
func (tr *Trace) StartSpan(name string) Span {
	if tr == nil {
		return Span{}
	}
	if tr.full.Load() {
		tr.dropped.Add(1)
		return Span{}
	}
	off := time.Since(tr.start)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= tr.maxSpans {
		tr.full.Store(true)
		tr.dropped.Add(1)
		return Span{}
	}
	tr.spans = append(tr.spans, spanRec{name: name, start: off})
	return Span{tr: tr, idx: int32(len(tr.spans))}
}

// Finish marks the trace complete and freezes its duration, and trims the
// span slice to its length, so the ring does not hold append's spare
// capacity for as long as the trace stays in it. Idempotent; safe on nil.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	d := time.Since(tr.start)
	tr.mu.Lock()
	if !tr.finished {
		tr.finished = true
		tr.dur = d
		if cap(tr.spans) > len(tr.spans) {
			tr.spans = append([]spanRec(nil), tr.spans...)
		}
	}
	tr.mu.Unlock()
}

// keyIndex returns key's index in the trace's interned key list, adding it
// if new. ok is false once 256 distinct keys are taken. Callers hold tr.mu.
func (tr *Trace) keyIndex(key string) (idx uint8, ok bool) {
	for i, k := range tr.keys {
		if k == key {
			return uint8(i), true
		}
	}
	if len(tr.keys) > math.MaxUint8 {
		return 0, false
	}
	tr.keys = append(tr.keys, key)
	return uint8(len(tr.keys) - 1), true
}

func (tr *Trace) snapshot() TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	dur := tr.dur
	if !tr.finished {
		dur = time.Since(tr.start)
	}
	s := TraceSnapshot{
		ID:           tr.id,
		Name:         tr.name,
		Start:        tr.start,
		DurationMS:   float64(dur) / float64(time.Millisecond),
		Complete:     tr.finished,
		DroppedSpans: tr.dropped.Load(),
		Spans:        make([]SpanSnapshot, len(tr.spans)),
	}
	for i := range tr.spans {
		rec := &tr.spans[i]
		end := rec.end
		if !rec.done {
			end = dur
		}
		ss := SpanSnapshot{
			Name:       rec.name,
			StartUS:    float64(rec.start) / float64(time.Microsecond),
			DurationUS: float64(end-rec.start) / float64(time.Microsecond),
		}
		if rec.nattrs > 0 {
			ss.Attrs = make(map[string]int64, rec.nattrs)
			for a := uint8(0); a < rec.nattrs; a++ {
				ss.Attrs[tr.keys[rec.keys[a]]] = rec.vals[a]
			}
		}
		s.Spans[i] = ss
	}
	return s
}

// Span is a handle to one open span. The zero value is inert: every method
// no-ops, which is what makes unconditional instrumentation of hot paths
// safe — untraced runs thread zero Spans around for the cost of a nil check.
type Span struct {
	tr  *Trace
	idx int32 // 1-based; 0 marks the inert zero value
}

// SetInt attaches an integer attribute (rounds, words, sample index, ...).
// Attributes beyond the span's fixed capacity, or past the trace's 256
// distinct keys, are dropped.
func (sp Span) SetInt(key string, v int64) {
	if sp.tr == nil {
		return
	}
	sp.tr.mu.Lock()
	rec := &sp.tr.spans[sp.idx-1]
	if rec.nattrs < maxAttrs {
		if k, ok := sp.tr.keyIndex(key); ok {
			rec.keys[rec.nattrs] = k
			rec.vals[rec.nattrs] = v
			rec.nattrs++
		}
	}
	sp.tr.mu.Unlock()
}

// End closes the span at the current instant.
func (sp Span) End() {
	if sp.tr == nil {
		return
	}
	off := time.Since(sp.tr.start)
	sp.tr.mu.Lock()
	rec := &sp.tr.spans[sp.idx-1]
	rec.end = off
	rec.done = true
	sp.tr.mu.Unlock()
}

// TraceSnapshot is the JSON form of one trace, as served by /v1/traces.
type TraceSnapshot struct {
	ID           string         `json:"id"`
	Name         string         `json:"name"`
	Start        time.Time      `json:"start"`
	DurationMS   float64        `json:"duration_ms"`
	Complete     bool           `json:"complete"`
	DroppedSpans int64          `json:"dropped_spans,omitempty"`
	Spans        []SpanSnapshot `json:"spans"`
}

// SpanSnapshot is the JSON form of one span: offset and duration in
// microseconds plus the integer attributes.
type SpanSnapshot struct {
	Name       string           `json:"name"`
	StartUS    float64          `json:"start_us"`
	DurationUS float64          `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
}

type ctxKey struct{}

// NewContext returns ctx carrying tr. A nil tr is carried as-is, so callers
// never branch before attaching.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
