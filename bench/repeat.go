package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &b, nil
}

// spread summarizes one metric's values over repeated runs.
type spread struct {
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	Median   float64   `json:"median"`
	IQRFrac  float64   `json:"iqr_frac"`       // (Q3-Q1)/median, Q1 and Q3 as Python's statistics.quantiles
	MaxDev   float64   `json:"max_dev_frac"`   // largest |value-median|/median
	HalfDiff float64   `json:"half_diff_frac"` // |median(odd runs)-median(even runs)|/median(even runs)
	Values   []float64 `json:"values"`
}

func summarize(values []float64, unit string, bound float64) spread {
	s := spread{Unit: unit, Bound: bound, Values: values, Median: median(values)}
	q := quartiles(values)
	s.IQRFrac = (q[2] - q[0]) / s.Median
	for _, v := range values {
		s.MaxDev = math.Max(s.MaxDev, math.Abs(v-s.Median)/s.Median)
	}
	var even, odd []float64
	for i, v := range values {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	if len(odd) > 0 {
		s.HalfDiff = math.Abs(median(odd)-median(even)) / median(even)
	}
	return s
}

// repeat runs every workload runs times, alternating workloads within each
// round, with seed, seed+1, ... so each run sees new inputs. It reports
// every end-to-end metric's median, IQR, largest deviation and the gap
// between the medians of the even and the odd runs (two alternating sets of
// the same code), and checks the IQR and that gap against the metric's
// bound. setup_s is exempt from the IQR check, as its bound covers only
// the shift of its median.
func (e *env) repeat(ctx context.Context, ws []workload, seed uint64, runs int, spec *benchmarkFile, out string, stdout io.Writer) (bool, error) {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	type counts struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
	}
	requests := map[string]counts{}
	for _, w := range ws {
		values[w.name] = map[string][]float64{}
	}
	for r := 0; r < runs; r++ {
		for _, w := range ws {
			rctx, cancel := context.WithTimeout(ctx, e.runTimeout())
			rep, err := e.runEndToEnd(rctx, w, seed+uint64(r))
			cancel()
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w", w.name, r, err)
			}
			if !rep.correct {
				return false, fmt.Errorf("%s run %d: incorrect output: %v", w.name, r, rep.firstErr)
			}
			requests[w.name] = counts{requests[w.name].Attempted + rep.attempted, requests[w.name].Failed + rep.failed}
			var parts []string
			for _, m := range rep.metrics {
				values[w.name][m.name] = append(values[w.name][m.name], m.value)
				units[m.name] = m.unit
				parts = append(parts, fmt.Sprintf("%s=%.4g", m.name, m.value))
			}
			fmt.Fprintf(stdout, "run %d %s seed=%d: %s failed=%d/%d\n", r, w.name, seed+uint64(r), strings.Join(parts, " "), rep.failed, rep.attempted)
		}
	}

	ok := true
	summary := map[string]map[string]spread{}
	for _, w := range ws {
		summary[w.name] = map[string]spread{}
		fmt.Fprintf(stdout, "%s over %d runs:\n", w.name, runs)
		fmt.Fprintf(stdout, "  %-22s %12s %-6s %8s %8s %8s %8s  %s\n", "metric", "median", "unit", "iqr", "maxdev", "halves", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			vs, found := values[w.name][m.Name]
			if !found {
				return false, fmt.Errorf("%s: metric %s in BENCHMARK.json was not measured", w.name, m.Name)
			}
			s := summarize(vs, units[m.Name], m.Bound)
			summary[w.name][m.Name] = s
			verdict := "ok"
			switch {
			case s.HalfDiff > m.Bound || (m.Name != "setup_s" && s.IQRFrac > m.Bound):
				verdict = "EXCEEDS BOUND"
				ok = false
			case m.Name != "setup_s" && s.IQRFrac > m.Bound/3:
				verdict = "ok, iqr above bound/3"
			}
			fmt.Fprintf(stdout, "  %-22s %12.5g %-6s %7.2f%% %7.2f%% %7.2f%% %7.0f%%  %s\n",
				m.Name, s.Median, s.Unit, 100*s.IQRFrac, 100*s.MaxDev, 100*s.HalfDiff, 100*m.Bound, verdict)
		}
		// A workload must not fail any request, so one failure fails it.
		if c := requests[w.name]; c.Failed > 0 {
			fmt.Fprintf(stdout, "  %d of %d requests failed: FAILS\n", c.Failed, c.Attempted)
			ok = false
		}
	}
	if out == "" {
		return ok, nil
	}
	commit := "unknown"
	if b, err := exec.Command("git", "-C", e.root, "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	buf, err := json.MarshalIndent(map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"seed":       seed,
		"runs":       runs,
		"seconds":    e.window.Seconds(),
		"warmup_s":   e.warmup.Seconds(),
		"clients":    loadClients,
		"requests":   requests,
		"workloads":  summary,
	}, "", "  ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(out, append(buf, '\n'), 0o644)
}
