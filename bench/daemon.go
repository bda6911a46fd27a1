package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/spantreed from the checkout at root into out.
func buildDaemon(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/spantreed")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building spantreed: %w", err)
	}
	return nil
}

// proc is one spantreed child process listening on addr.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited
	logs *tailBuffer
}

// startProc execs bin on a free loopback port with the given extra flags.
// The child is killed if the harness dies first.
func startProc(bin string, args ...string) (*proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &proc{addr: addr, done: make(chan struct{}), logs: &tailBuffer{max: 4 << 10}}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr, "-drain-timeout", "2s"}, args...)...)
	p.cmd.Stderr = p.logs
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting spantreed: %w", err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and waits
// for the process to exit.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// waitReady polls /readyz every millisecond until it answers 200. A boot
// takes tens of milliseconds; polling faster would compete with it for the
// CPU it is timed on.
func (p *proc) waitReady(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("spantreed on %s exited before ready: %s", p.addr, p.logs)
		case <-ctx.Done():
			return fmt.Errorf("spantreed on %s not ready: %w", p.addr, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// tailBuffer keeps the last max bytes written to it: a daemon's recent log
// lines, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// topology is a set of running daemons: front is the endpoint traffic goes
// to, serving the replica that computes the trees (the same process unless
// a router sits in front).
type topology struct {
	procs   []*proc
	front   *proc
	serving *proc
}

// startTopology boots a single node, or a router in front of one replica.
func startTopology(ctx context.Context, hc *http.Client, bin string, routed bool) (*topology, error) {
	replica, err := startProc(bin)
	if err != nil {
		return nil, err
	}
	t := &topology{procs: []*proc{replica}, front: replica, serving: replica}
	if routed {
		rt, err := startProc(bin, "-mode", "router", "-peers", "http://"+replica.addr, "-replication", "1")
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, rt)
		t.front = rt
	}
	for _, p := range t.procs {
		if err := p.waitReady(ctx, hc); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

func (t *topology) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
}

// peakRSSMB sums VmHWM over the topology's daemons.
func (t *topology) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

const graphKey = "bench"

// register posts the graph as an explicit edge list.
func register(ctx context.Context, hc *http.Client, addr string, n int, edges [][2]int) error {
	body, err := json.Marshal(map[string]any{"key": graphKey, "n": n, "edges": edges})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("registering graph: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registering graph: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// getBody fetches a GET endpoint's body.
func getBody(ctx context.Context, hc *http.Client, addr, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// daemonStats is the slice of a replica's /v1/stats the harness reads.
type daemonStats struct {
	RequestErrors int64 `json:"request_errors"`
	Engine        struct {
		PhaseCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
			Bytes  int64 `json:"bytes"`
		} `json:"phase_cache"`
		MatrixPool struct {
			Gets   int64 `json:"gets"`
			Reuses int64 `json:"reuses"`
		} `json:"matrix_pool"`
		Latency struct {
			SchedulerWait struct {
				Count      int64   `json:"count"`
				SumSeconds float64 `json:"sum_seconds"`
				P90        float64 `json:"p90_seconds"`
			} `json:"scheduler_wait"`
		} `json:"latency"`
	} `json:"engine"`
}

func readStats(ctx context.Context, hc *http.Client, addr string) (daemonStats, error) {
	var st daemonStats
	body, err := getBody(ctx, hc, addr, "/v1/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// promSum adds up the samples of the named unlabelled Prometheus families.
func promSum(text string, names ...string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				v, _ := strconv.ParseFloat(f[1], 64)
				sum += v
			}
		}
	}
	return sum
}
