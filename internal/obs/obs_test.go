package obs

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestBucketBoundsShape(t *testing.T) {
	if len(bucketBounds)+1 != numBuckets {
		t.Fatalf("numBuckets = %d, want len(bucketBounds)+1 = %d", numBuckets, len(bucketBounds)+1)
	}
	for i := 1; i < len(bucketBounds); i++ {
		if bucketBounds[i] <= bucketBounds[i-1] {
			t.Fatalf("bucket bounds not strictly increasing at %d: %g <= %g", i, bucketBounds[i], bucketBounds[i-1])
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 observations at ~3ms land in the (2.5ms, 5ms] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.SumSeconds < 0.29 || s.SumSeconds > 0.31 {
		t.Errorf("sum = %g, want ~0.3", s.SumSeconds)
	}
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q < 2.5e-3 || q > 5e-3 {
			t.Errorf("quantile %g outside the landing bucket (2.5ms, 5ms]", q)
		}
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
}

func TestHistogramNilAndNegative(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 || s.SumSeconds != 0 {
		t.Errorf("nil histogram snapshot not zero: %+v", s)
	}
	h2 := NewHistogram()
	h2.Observe(-time.Second)
	if s := h2.Snapshot(); s.Count != 1 || s.SumSeconds != 0 {
		t.Errorf("negative duration should clamp to zero: %+v", s)
	}
}

func TestHistSnapshotAdd(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(2 * time.Microsecond)
	b.Observe(2 * time.Second)
	sum := a.Snapshot().Add(b.Snapshot())
	if sum.Count != 2 {
		t.Fatalf("merged count = %d, want 2", sum.Count)
	}
	if sum.SumSeconds < 1.9 || sum.SumSeconds > 2.1 {
		t.Errorf("merged sum = %g, want ~2", sum.SumSeconds)
	}
	// Adding a zero snapshot is the identity in both directions.
	if got := sum.Add(HistSnapshot{}); got.Count != 2 {
		t.Errorf("sum + zero count = %d, want 2", got.Count)
	}
	if got := (HistSnapshot{}).Add(sum); got.Count != 2 {
		t.Errorf("zero + sum count = %d, want 2", got.Count)
	}
}

func TestTracerSamplingPolicy(t *testing.T) {
	tr := NewTracer(4, 8)
	var sampled int
	for i := 0; i < 16; i++ {
		if tr.Start("req") != nil {
			sampled++
		}
	}
	if sampled != 4 {
		t.Errorf("1-in-4 sampling over 16 starts recorded %d traces, want 4", sampled)
	}
	if tr.Recorded() != 4 {
		t.Errorf("Recorded() = %d, want 4", tr.Recorded())
	}
	disabled := NewTracer(-1, 8)
	if disabled.Start("req") != nil {
		t.Error("disabled tracer sampled an unforced start")
	}
	if disabled.StartForced("req", "id-1") == nil {
		t.Error("forced start must trace even when unforced sampling is disabled")
	}
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	tc := NewTracer(1, 8)
	tr := tc.StartForced("job", "req-42")
	sp := tr.StartSpan("step")
	sp.SetInt("rounds", 7)
	sp.SetInt("words", 900)
	sp.End()
	// More than maxAttrs distinct keys across the trace: each span refers to
	// its own keys in the trace's interned list, and a fifth attribute on
	// one span is dropped.
	wide := tr.StartSpan("wide")
	for i, k := range []string{"a", "b", "words", "c", "d"} {
		wide.SetInt(k, int64(10+i))
	}
	wide.End()
	tail := tr.StartSpan("tail")
	tail.SetInt("e", -1)
	tail.SetInt("rounds", 8)
	tail.End()
	tr.Finish()

	snaps := tc.Snapshot(0)
	if len(snaps) != 1 {
		t.Fatalf("snapshot returned %d traces, want 1", len(snaps))
	}
	s := snaps[0]
	if s.ID != "req-42" || !s.Complete || len(s.Spans) != 3 {
		t.Fatalf("unexpected trace snapshot: %+v", s)
	}
	want := []SpanSnapshot{
		{Name: "step", Attrs: map[string]int64{"rounds": 7, "words": 900}},
		{Name: "wide", Attrs: map[string]int64{"a": 10, "b": 11, "words": 12, "c": 13}},
		{Name: "tail", Attrs: map[string]int64{"e": -1, "rounds": 8}},
	}
	for i, span := range s.Spans {
		if span.Name != want[i].Name || !reflect.DeepEqual(span.Attrs, want[i].Attrs) {
			t.Errorf("span %d = %+v, want name %q attrs %v", i, span, want[i].Name, want[i].Attrs)
		}
		if span.DurationUS < 0 {
			t.Errorf("span %d: negative duration %g", i, span.DurationUS)
		}
	}
}

// TestTraceKeyLimit: a trace interns at most 256 distinct attribute keys;
// an attribute with a key past that is dropped, while known keys still land.
func TestTraceKeyLimit(t *testing.T) {
	tc := NewTracer(1, 1)
	tr := tc.StartForced("keys", "")
	for i := 0; i < 300; i++ {
		sp := tr.StartSpan("s")
		sp.SetInt(fmt.Sprintf("k%d", i), int64(i))
		sp.SetInt("k0", -1)
		sp.End()
	}
	tr.Finish()
	for i, span := range tc.Snapshot(1)[0].Spans {
		want := map[string]int64{"k0": -1}
		if i > 0 && i < 256 {
			want[fmt.Sprintf("k%d", i)] = int64(i)
		}
		if !reflect.DeepEqual(span.Attrs, want) {
			t.Fatalf("span %d attrs = %v, want %v", i, span.Attrs, want)
		}
	}
}

// TestSpanRecSize pins the span record's size: a traced request keeps up to
// DefaultMaxSpans of them for as long as it stays in the ring, so the record
// size sets how far the daemon's heap grows with traffic.
func TestSpanRecSize(t *testing.T) {
	if got := unsafe.Sizeof(spanRec{}); got > 72 {
		t.Errorf("spanRec is %d bytes, want at most 72", got)
	}
}

func TestTraceSpanCapCountsDrops(t *testing.T) {
	tc := NewTracer(1, 2)
	tr := tc.StartForced("big", "")
	tr.maxSpans = 3
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan("s")
		sp.End()
	}
	tr.Finish()
	s := tc.Snapshot(1)[0]
	if len(s.Spans) != 3 || s.DroppedSpans != 7 {
		t.Errorf("got %d spans, %d dropped; want 3 and 7", len(s.Spans), s.DroppedSpans)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tc := NewTracer(1, 2)
	tc.StartForced("a", "a").Finish()
	tc.StartForced("b", "b").Finish()
	tc.StartForced("c", "c").Finish()
	snaps := tc.Snapshot(0)
	if len(snaps) != 2 || snaps[0].ID != "c" || snaps[1].ID != "b" {
		t.Errorf("ring should hold the 2 most recent, newest first; got %+v", snaps)
	}
	if got := tc.Snapshot(1); len(got) != 1 || got[0].ID != "c" {
		t.Errorf("limit=1 should return just the newest; got %+v", got)
	}
}

func TestNilTraceAndZeroSpanAreInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Error("nil trace ID not empty")
	}
	sp := tr.StartSpan("x") // must not panic
	sp.SetInt("k", 1)
	sp.End()
	tr.Finish()
	var nilTracer *Tracer
	if nilTracer.Start("x") != nil || nilTracer.StartForced("x", "id") != nil {
		t.Error("nil tracer returned a trace")
	}
	if nilTracer.Snapshot(0) != nil {
		t.Error("nil tracer snapshot not nil")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTracer(1, 2)
	tr := tc.StartForced("ctx", "")
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Errorf("FromContext = %p, want %p", got, tr)
	}
	if FromContext(context.Background()) != nil {
		t.Error("empty context should carry no trace")
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tc := NewTracer(1, 2)
	tr := tc.StartForced("racy", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := tr.StartSpan("s")
				sp.SetInt("i", int64(i))
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	tr.Finish()
	if s := tc.Snapshot(1)[0]; len(s.Spans)+int(s.DroppedSpans) != 400 {
		t.Errorf("spans %d + dropped %d != 400", len(s.Spans), s.DroppedSpans)
	}
}

func TestPromWriterAndValidator(t *testing.T) {
	h := NewHistogram()
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)

	var b strings.Builder
	w := NewPromWriter(&b)
	w.Header("app_requests_total", "Total requests served.", "counter")
	w.Value("app_requests_total", 12)
	w.Header("app_queue_depth", "Current queue depth.", "gauge")
	w.Value("app_queue_depth", 3, L{"graph", `we"ird\name`})
	w.Header("app_latency_seconds", "Request latency.", "histogram")
	w.Hist("app_latency_seconds", h.Snapshot(), L{"endpoint", "/v1/sample"})
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	families, err := ValidateExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("valid page rejected: %v\npage:\n%s", err, b.String())
	}
	if families != 3 {
		t.Errorf("families = %d, want 3", families)
	}
	if !strings.Contains(b.String(), `le="+Inf"`) {
		t.Error("histogram missing +Inf bucket")
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":           "app_x 1\n",
		"bad value":         "# TYPE app_x counter\napp_x notanumber\n",
		"negative counter":  "# TYPE app_x counter\napp_x -1\n",
		"missing +Inf":      "# TYPE app_h histogram\napp_h_bucket{le=\"1\"} 1\napp_h_sum 1\napp_h_count 1\n",
		"non-monotone":      "# TYPE app_h histogram\napp_h_bucket{le=\"1\"} 5\napp_h_bucket{le=\"+Inf\"} 3\napp_h_sum 1\napp_h_count 3\n",
		"count mismatch":    "# TYPE app_h histogram\napp_h_bucket{le=\"+Inf\"} 3\napp_h_sum 1\napp_h_count 4\n",
		"empty page":        "\n",
		"bad metric name":   "# TYPE 0bad counter\n0bad 1\n",
		"malformed comment": "# NOPE x y\napp_x 1\n",
	}
	for name, page := range cases {
		if _, err := ValidateExposition(strings.NewReader(page)); err == nil {
			t.Errorf("%s: accepted invalid page %q", name, page)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if q := nilH.Quantile(0.99); q != 0 {
		t.Errorf("nil histogram quantile = %g, want 0", q)
	}
	h := NewHistogram()
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Millisecond)
	}
	if q := h.Quantile(0.99); q < 2.5e-3 || q > 5e-3 {
		t.Errorf("quantile %g outside the landing bucket (2.5ms, 5ms]", q)
	}
	if got, want := h.Quantile(0.99), h.Snapshot().P99; got != want {
		t.Errorf("Quantile(0.99) = %g, Snapshot().P99 = %g", got, want)
	}
}
