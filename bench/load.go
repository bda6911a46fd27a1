package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/graph"
)

// streamBody is the POST /v1/graphs/{key}/stream request.
type streamBody struct {
	K        int    `json:"k"`
	Sampler  string `json:"sampler"`
	SeedBase uint64 `json:"seed_base"`
}

// streamResult is one stream request as the client saw it.
type streamResult struct {
	sent     time.Time
	arrivals []time.Time // arrival of each tree line, in arrival order
	end      time.Time   // arrival of the terminal line
	trees    []string    // by index
	rounds   []int       // by index
	bytes    int         // response bytes, all lines
	lines    int         // lines, terminal included
	err      error       // why the request failed; nil if it succeeded
	// wrong marks a failure in which the response itself is incorrect, as
	// opposed to a transport failure, a non-2xx status or an error line.
	wrong bool
}

func (r *streamResult) ttft() time.Duration  { return r.arrivals[0].Sub(r.sent) }
func (r *streamResult) total() time.Duration { return r.end.Sub(r.sent) }

// stream sends one stream request and reads its NDJSON response to the end.
// Transport and status failures land in the result's err.
func stream(ctx context.Context, hc *http.Client, addr string, body streamBody, g *graph.Graph) *streamResult {
	res := &streamResult{}
	buf, err := json.Marshal(body)
	if err != nil {
		res.err = err
		return res
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/graphs/"+graphKey+"/stream", bytes.NewReader(buf))
	if err != nil {
		res.err = err
		return res
	}
	res.sent = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return res
	}
	parseStream(resp.Body, body.K, g, res)
	return res
}

// wireLine is one NDJSON line: a tree line carries an index, the terminal
// line carries done or error.
type wireLine struct {
	Index  *int   `json:"index"`
	Tree   string `json:"tree"`
	Rounds int    `json:"rounds"`
	Done   bool   `json:"done"`
	Error  string `json:"error"`
}

// parseStream reads a stream response into res, timing each line as it
// arrives. The request fails on an error line or a missing terminal line,
// and its response is wrong on an undecodable line, an index outside 0..k-1
// or seen twice, a done line with indices missing, or a tree that is not a
// spanning tree of g.
func parseStream(r io.Reader, k int, g *graph.Graph, res *streamResult) {
	wrong := func(format string, args ...any) {
		res.err = fmt.Errorf(format, args...)
		res.wrong = true
	}
	res.trees = make([]string, k)
	res.rounds = make([]int, k)
	seen := make([]bool, k)
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) > 0 {
			res.bytes += len(line)
			res.lines++
			var ln wireLine
			if jerr := json.Unmarshal(line, &ln); jerr != nil {
				wrong("undecodable line: %w", jerr)
				return
			}
			switch {
			case ln.Index != nil:
				i := *ln.Index
				if i < 0 || i >= k || seen[i] {
					wrong("index %d out of range or repeated", i)
					return
				}
				if terr := checkTree(g, ln.Tree); terr != nil {
					wrong("index %d: %w", i, terr)
					return
				}
				seen[i] = true
				res.trees[i], res.rounds[i] = ln.Tree, ln.Rounds
				res.arrivals = append(res.arrivals, now)
				continue
			case ln.Error != "":
				res.err = fmt.Errorf("error line: %s", ln.Error)
				return
			case ln.Done:
				res.end = now
				if len(res.arrivals) != k {
					wrong("done after %d of %d trees", len(res.arrivals), k)
				}
				return
			default:
				wrong("line is neither a tree nor terminal: %s", bytes.TrimSpace(line))
				return
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			res.err = fmt.Errorf("stream ended without a terminal line: %w", err)
			return
		}
	}
}

// rateSlices is how many equal slices the timed window is cut into; the
// throughput of a run is the median of the slices' rates, so a burst of
// noise from outside the benchmark in one slice does not move it.
const rateSlices = 10

// loadResult is one closed-loop load phase.
type loadResult struct {
	winStart, winEnd time.Time
	arrivals         []time.Time     // tree lines that arrived inside the window
	timed            []*streamResult // successful requests sent inside the window
	attempted        int             // every request sent, warm-up included
	failed           int
	wrong            int // failed requests whose response was incorrect
	firstErr         error
}

// sliceRates is the tree rate in each slice of the window, in trees per
// reference second.
func (l *loadResult) sliceRates(c *refClock) []float64 {
	slice := l.winEnd.Sub(l.winStart) / rateSlices
	counts := make([]int, rateSlices)
	for _, a := range l.arrivals {
		counts[min(int(a.Sub(l.winStart)/slice), rateSlices-1)]++
	}
	rates := make([]float64, rateSlices)
	for i, n := range counts {
		s0 := l.winStart.Add(time.Duration(i) * slice)
		rates[i] = float64(n) / c.dur(s0, s0.Add(slice)).Seconds()
	}
	return rates
}

// runLoad drives addr with closed-loop clients, each sending its next
// request only after the terminal line of the previous one. Requests sent
// during the warm-up are discarded; requests sent inside the window are
// timed to their end, and the clients stop sending when the window closes.
func runLoad(ctx context.Context, hc *http.Client, addr string, w workload, g *graph.Graph, seed uint64, clients int, warmup, window time.Duration) loadResult {
	start := time.Now()
	winStart := start.Add(warmup)
	winEnd := winStart.Add(window)
	perClient := make([][]*streamResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; ctx.Err() == nil && time.Now().Before(winEnd); r++ {
				body := streamBody{K: w.k, Sampler: w.sampler, SeedBase: seedBase(seed, w, c, r)}
				perClient[c] = append(perClient[c], stream(ctx, hc, addr, body, g))
			}
		}(c)
	}
	wg.Wait()
	out := loadResult{winStart: winStart, winEnd: winEnd}
	for _, rs := range perClient {
		for _, r := range rs {
			out.attempted++
			for _, a := range r.arrivals {
				if !a.Before(winStart) && a.Before(winEnd) {
					out.arrivals = append(out.arrivals, a)
				}
			}
			if r.err != nil {
				out.failed++
				if r.wrong {
					out.wrong++
				}
				if out.firstErr == nil {
					out.firstErr = r.err
				}
				continue
			}
			if !r.sent.Before(winStart) {
				out.timed = append(out.timed, r)
			}
		}
	}
	return out
}
