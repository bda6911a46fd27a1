package client

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// RegisterRequest is the body of POST /v1/graphs.
type RegisterRequest struct {
	Key    string      `json:"key"`
	Family string      `json:"family,omitempty"`
	N      int         `json:"n"`
	Seed   uint64      `json:"seed,omitempty"`
	Edges  [][]float64 `json:"edges,omitempty"`
}

// GraphInfo mirrors the server's graph description.
type GraphInfo struct {
	Key       string `json:"key"`
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	Digest    string `json:"digest,omitempty"`
	TreeCount string `json:"tree_count,omitempty"`
}

// SampleRequest is the body of POST /v1/sample and POST /v1/audit. Workers
// caps the batch's concurrent pool slots (0: no cap beyond the pool width).
type SampleRequest struct {
	Graph        string `json:"graph"`
	K            int    `json:"k"`
	Sampler      string `json:"sampler,omitempty"`
	SeedBase     uint64 `json:"seed_base"`
	Workers      int    `json:"workers,omitempty"`
	DeadlineMS   int    `json:"deadline_ms,omitempty"`
	IncludeTrees bool   `json:"include_trees,omitempty"`
}

// SampleResult is the response of POST /v1/sample. Summary is kept as raw
// JSON so the client never re-encodes (and thereby never perturbs) the
// server's bytes — cross-replica identity checks compare it verbatim.
type SampleResult struct {
	Graph     string          `json:"graph"`
	Sampler   string          `json:"sampler"`
	SeedBase  uint64          `json:"seed_base"`
	Summary   json.RawMessage `json:"summary"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Trees     []string        `json:"trees,omitempty"`
}

// StreamRequest is the body of POST /v1/graphs/{key}/stream.
type StreamRequest struct {
	K             int     `json:"k"`
	Sampler       string  `json:"sampler,omitempty"`
	SegmentLength int     `json:"segment_length,omitempty"`
	MaxSteps      int     `json:"max_steps,omitempty"`
	Root          int     `json:"root,omitempty"`
	Weight        float64 `json:"weight,omitempty"`
	MaxWorkers    int     `json:"max_workers,omitempty"`
	DeadlineMS    int     `json:"deadline_ms,omitempty"`
	SeedBase      uint64  `json:"seed_base"`
	// StartIndex shifts the stream's index window (absolute indices
	// StartIndex..StartIndex+K-1) — the resume primitive the FailoverClient
	// uses to splice a dead replica's stream onto a live one.
	StartIndex int `json:"start_index,omitempty"`
}

// Result is one delivered sample: the tree at absolute index Index plus its
// charged congested-clique statistics.
type Result struct {
	Index      int
	Tree       string
	Rounds     int
	Supersteps int
	TotalWords int64
	WalkSteps  int
}

// Line is one NDJSON line of a stream response: a per-sample result (Index
// set; lines arrive in completion order and Index is the determinism key),
// or the terminal line carrying either Done with Samples and ElapsedMS, or
// Error.
type Line struct {
	Index      *int   `json:"index,omitempty"`
	Tree       string `json:"tree,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	Supersteps int    `json:"supersteps,omitempty"`
	TotalWords int64  `json:"total_words,omitempty"`
	WalkSteps  int    `json:"walk_steps,omitempty"`

	Done      bool    `json:"done,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Line returns the result's per-sample stream line.
func (r Result) Line() Line {
	i := r.Index
	return Line{Index: &i, Tree: r.Tree, Rounds: r.Rounds, Supersteps: r.Supersteps, TotalWords: r.TotalWords, WalkSteps: r.WalkSteps}
}

// APIError is a non-2xx response decoded from the server's JSON error body.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server-suggested backoff for 429 responses (from the
	// Retry-After header or the body's retry_after_seconds), 0 otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Stream is a live result stream. Consume Results until the channel closes,
// then check Err: nil means the stream completed (every requested index was
// delivered), non-nil means it was aborted. Close releases the stream early.
type Stream struct {
	results chan Result
	cancel  context.CancelFunc

	mu  sync.Mutex
	err error
}

func newStream(buf int, cancel context.CancelFunc) *Stream {
	return &Stream{results: make(chan Result, buf), cancel: cancel}
}

// Results returns the receive channel of delivered samples. Lines arrive in
// completion order; Index identifies each sample.
func (s *Stream) Results() <-chan Result { return s.results }

// Err reports how the stream ended; call after Results closes.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close aborts the stream. The Results channel closes shortly after; a
// closed-by-Close stream reports a context cancellation from Err.
func (s *Stream) Close() {
	s.cancel()
	for range s.results { // drain so the feeder goroutine exits
	}
}

func (s *Stream) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}
