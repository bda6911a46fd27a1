package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/prng"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{20, 0.5, 10}, {100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {999, 0.99, 9}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
	// statistics.quantiles(range(1, 11), n=4) in Python.
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", got)
	}
	var out strings.Builder
	printMetrics(&out, []metric{
		{name: "ok", value: 1, unit: "ms", samples: 100, q: 0.9},
		{name: "short", value: 1, unit: "ms", samples: 99, q: 0.9},
	})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if strings.Contains(lines[0], "fewer than 10") || !strings.Contains(lines[1], "fewer than 10") {
		t.Errorf("percentile rule not flagged correctly:\n%s", out.String())
	}
}

func TestRefClock(t *testing.T) {
	// Five buckets at reference speed, two empty ones, then three at half
	// speed: the empty buckets run at the median speed of all samples,
	// reference speed.
	var samples []probeSample
	for b := 0; b < 10; b++ {
		cpu := refProbeCPU
		switch {
		case b == 5 || b == 6:
			continue
		case b > 6:
			cpu *= 2
		}
		for i := 0; i < 5; i++ {
			at := time.Duration(b)*clockBucket + time.Duration(i)*clockBucket/5
			samples = append(samples, probeSample{at: at, cpu: cpu})
		}
	}
	start := time.Now()
	c := newRefClock(start, samples)
	at := func(buckets float64) time.Time { return start.Add(time.Duration(buckets * float64(clockBucket))) }
	for _, tc := range []struct {
		from, to, want float64 // in buckets
	}{
		{0, 4, 4},
		{1.5, 2, 0.5},
		{5, 7, 2},
		{7, 10, 1.5},
		{9, 12, 1.5}, // past the last sample, its bucket's speed holds
		{-1, 0, 1},
	} {
		got := c.dur(at(tc.from), at(tc.to)).Seconds() / clockBucket.Seconds()
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("reference time from bucket %g to %g = %g buckets, want %g", tc.from, tc.to, got, tc.want)
		}
	}
	if s := c.slowdown(at(7), at(9.5)); s != 2 {
		t.Errorf("slowdown over the half-speed buckets = %g, want 2", s)
	}
}

func TestSeedBaseDeterministicAndDisjoint(t *testing.T) {
	seen := map[uint64]string{}
	for _, w := range workloads {
		for _, c := range []int{0, 1, clientSetup, clientVerify, clientTrace} {
			for r := 0; r < 500; r++ {
				sb := seedBase(7, w, c, r)
				if sb != seedBase(7, w, c, r) {
					t.Fatalf("seedBase(7, %s, %d, %d) is not deterministic", w.name, c, r)
				}
				key := fmt.Sprintf("%s client %d request %d", w.name, c, r)
				if prev, dup := seen[sb]; dup {
					t.Fatalf("seed base %#x repeats: %s and %s", sb, prev, key)
				}
				seen[sb] = key
			}
		}
	}
	if seedBase(7, workloads[0], 0, 0) == seedBase(8, workloads[0], 0, 0) {
		t.Error("different workload seeds give the same seed base")
	}
}

// pathGraph is 0-1-2-3 plus the chord 0-2.
func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graphFromWire(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckTree(t *testing.T) {
	g := pathGraph(t)
	for enc, ok := range map[string]bool{
		"0-1;1-2;2-3": true,
		"0-2;1-2;2-3": true,
		"0-1;1-2":     false, // too few edges
		"0-1;1-2;0-2": false, // cycle
		"0-1;1-3;2-3": false, // 1-3 is not an edge
		"0-1;0-1;2-3": false, // repeated edge
		"0-1;1-x;2-3": false,
	} {
		if err := checkTree(g, enc); (err == nil) != ok {
			t.Errorf("checkTree(%q) = %v, want ok=%t", enc, err, ok)
		}
	}
}

func TestParseStream(t *testing.T) {
	g := pathGraph(t)
	const a, b = `{"index":0,"tree":"0-1;1-2;2-3","rounds":5}`, `{"index":1,"tree":"0-2;1-2;2-3","rounds":6}`
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"complete", b + "\n" + a + "\n" + `{"done":true,"samples":2}` + "\n", true},
		{"error terminal line", a + "\n" + `{"error":"engine: sampling failed","samples":1}` + "\n", false},
		{"duplicate index", a + "\n" + a + "\n" + `{"done":true}` + "\n", false},
		{"missing index", a + "\n" + `{"done":true}` + "\n", false},
		{"index out of range", a + "\n" + `{"index":2,"tree":"0-1;1-2;2-3"}` + "\n", false},
		{"invalid tree", a + "\n" + `{"index":1,"tree":"0-1;1-2;0-2"}` + "\n", false},
		{"no terminal line", a + "\n" + b + "\n", false},
		{"undecodable line", a + "\nnot json\n", false},
	} {
		res := &streamResult{}
		parseStream(strings.NewReader(c.body), 2, g, res)
		if (res.err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%t", c.name, res.err, c.ok)
		}
		if c.ok && (res.trees[1] != "0-2;1-2;2-3" || res.rounds[0] != 5 || len(res.arrivals) != 2 || res.lines != 3) {
			t.Errorf("%s: parsed %+v", c.name, res)
		}
	}
}

func TestNestedSubsets(t *testing.T) {
	g, err := makeGraph(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	order := visitOrder(g, prng.New(5))
	if len(order) != 32 || order[0] != 0 {
		t.Fatalf("visit order %v does not start at 0 or misses vertices", order)
	}
	newVertices := []int{5, 5, 9, 12}
	subs, err := nestedSubsets(order, newVertices)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != len(newVertices)-1 {
		t.Fatalf("%d subsets, want one per phase after the first (%d)", len(subs), len(newVertices)-1)
	}
	visited := 1 + newVertices[0]
	for j, sub := range subs {
		if want := 32 - visited + 1; sub.Size() != want {
			t.Errorf("phase %d subset has %d vertices, want %d", j+1, sub.Size(), want)
		}
		if !sub.Contains(order[visited-1]) {
			t.Errorf("phase %d subset misses its start vertex %d", j+1, order[visited-1])
		}
		if j > 0 {
			for _, v := range sub.Vertices() {
				if !subs[j-1].Contains(v) {
					t.Errorf("phase %d subset is not nested in phase %d's: %d", j+1, j, v)
				}
			}
		}
		visited += newVertices[j+1]
	}
	if _, err := nestedSubsets(order, []int{5, 5}); err == nil {
		t.Error("phase counts that do not cover the graph were accepted")
	}
}

// TestSmoke runs every workload end to end and traced at n=16 with a one
// second window, against a spantreed built from this checkout, and checks
// that every metric BENCHMARK.json names is emitted, finite and in its
// unit, and that no request failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots spantreed")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	bin := filepath.Join(t.TempDir(), "spantreed")
	if err := buildDaemon(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	e := newEnv(root, bin)
	e.n, e.window, e.warmup = 16, time.Second, 200*time.Millisecond
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := e.runOnce(ctx, w, 11, trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d (%v)", w.name, trace, rep.correct, rep.attempted, rep.failed, rep.firstErr)
			}
			got := map[string]metric{}
			for _, m := range rep.metrics {
				got[m.name] = m
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := got[name]
				if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.unit != unit {
					t.Errorf("%s trace=%t: metric %s missing, not finite or not in %s: %+v", w.name, trace, name, unit, m)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%t: emitted %d metrics, BENCHMARK.json lists %d", w.name, trace, len(got), len(want))
			}
			if _, err := resultLine(rep); err != nil {
				t.Errorf("%s trace=%t: %v", w.name, trace, err)
			}
		}
	}
}
