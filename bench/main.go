// Command bench is the serving benchmark: it builds cmd/spantreed from the
// same checkout, boots it as a subprocess (a single node, or a router in
// front of one replica), drives it with a closed-loop client over
// POST /v1/graphs/{key}/stream with fresh seed bases, checks every tree, and
// prints every metric by name and unit. The last line of its output is one
// JSON object with the run's correctness, request counts and metrics.
//
// Usage, from the repository root:
//
//	go -C bench run . -workload phase-n96 -seed 7           # end-to-end metrics
//	go -C bench run . -workload phase-n96 -seed 7 -trace 1  # per-layer metrics
//	go -C bench run . -repeat 10 -out baseline.json         # spread of every end-to-end metric
//
// README.md defines the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// env is what every run of the harness shares.
type env struct {
	root   string
	bin    string // the spantreed binary
	hc     *http.Client
	boots  int           // cold boots behind setup_s
	warmup time.Duration // discarded load before the timed window
	window time.Duration // timed window; a traced run spends warmup+window
	n      int           // when positive, replaces every workload's vertex count
}

// runTimeout bounds one run of one workload: the warm-up and the window,
// plus a margin for the cold boots, the verification set and the traced
// run's algebra replay.
func (e *env) runTimeout() time.Duration { return e.warmup + e.window + 2*time.Minute }

func (e *env) size(w workload) int {
	if e.n > 0 {
		return e.n
	}
	return w.n
}

// loadClients is the number of closed-loop clients. The engine spreads one
// stream over all its workers, so a single caller keeps the daemon busy. On
// the two-core machine the benchmark was calibrated on, two clients made
// each request's latency depend on how the engine interleaved the two
// streams: ttft_ms_p50 at n=32 spread by 31% IQR across runs, against 4%
// with one client at the same throughput.
const loadClients = 1

func newEnv(root, bin string) *env {
	return &env{
		root: root,
		bin:  bin,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: loadClients,
			DisableCompression:  true,
		}},
		boots:  15,
		warmup: 3 * time.Second,
		window: 30 * time.Second,
	}
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", "..", "repository root: holds cmd/spantreed and BENCHMARK.json")
	name := fs.String("workload", "", "workload to run (default: every workload)")
	seed := fs.Uint64("seed", 1, "workload seed: generates the graph and every request's seed base")
	seconds := fs.Float64("seconds", 30, "timed window in seconds, after a 3 s warm-up that is discarded; a traced run (-trace 1) spends both")
	trace := fs.Int("trace", 0, "1: the per-layer run instead of the end-to-end run")
	repeat := fs.Int("repeat", 0, "run every selected workload this many times (seeds seed, seed+1, ...) and check each end-to-end metric's spread against its BENCHMARK.json bound")
	out := fs.String("out", "", "with -repeat: write the summary JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() > 0 {
		return 0, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return 0, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return 0, err
		}
		ws = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return 0, err
	}
	bin := filepath.Join(absRoot, ".bench_build", "spantreed")
	if err := buildDaemon(ctx, absRoot, bin); err != nil {
		return 0, err
	}
	e := newEnv(absRoot, bin)
	e.window = time.Duration(*seconds * float64(time.Second))

	if *repeat > 0 {
		spec, err := loadBenchmarkFile(filepath.Join(absRoot, "BENCHMARK.json"))
		if err != nil {
			return 0, err
		}
		ok, err := e.repeat(ctx, ws, *seed, *repeat, spec, *out, stdout)
		if err != nil || !ok {
			return 1, err
		}
		return 0, nil
	}

	code := 0
	for _, w := range ws {
		rctx, cancel := context.WithTimeout(ctx, e.runTimeout())
		rep, err := e.runOnce(rctx, w, *seed, *trace == 1)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		mode := "end-to-end"
		if *trace == 1 {
			mode = "per-layer"
		}
		fmt.Fprintf(stdout, "%s (%s): n=%d sampler=%s k=%d router=%t seed=%d clients=%d window=%v nproc=%d GOMAXPROCS=%d %s\n",
			w.name, mode, e.size(w), w.sampler, w.k, w.router, *seed, loadClients, e.window, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
		printMetrics(stdout, rep.metrics)
		if rep.slowdown > 0 {
			fmt.Fprintf(stdout, "  reference clock: the machine ran %.3g times slower than reference speed in the window; %.4g trees per wall-clock second\n", rep.slowdown, rep.rawTreesPerS)
		}
		fmt.Fprintf(stdout, "  requests: %d attempted, %d failed (failed_frac %g)\n", rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
		if rep.firstErr != nil {
			fmt.Fprintf(stdout, "  first failure: %v\n", rep.firstErr)
		}
		line, err := resultLine(rep)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintln(stdout, line)
		if !rep.correct {
			code = 1
		}
	}
	return code, nil
}

func (e *env) runOnce(ctx context.Context, w workload, seed uint64, trace bool) (runReport, error) {
	if trace {
		return e.runTrace(ctx, w, seed)
	}
	return e.runEndToEnd(ctx, w, seed)
}

// resultLine is the final JSON object of a run.
func resultLine(rep runReport) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is not finite", m.name)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	return string(buf), err
}
