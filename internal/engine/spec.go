package engine

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnknownSampler marks requests naming a sampler the engine does not
// know; serving layers map it to 400. It wraps every unknown-sampler error
// this package returns, so callers dispatch with errors.Is.
var ErrUnknownSampler = errors.New("engine: unknown sampler")

// samplerSet indexes Samplers() for O(1) validation.
var samplerSet = func() map[Sampler]struct{} {
	m := make(map[Sampler]struct{}, len(Samplers()))
	for _, s := range Samplers() {
		m[s] = struct{}{}
	}
	return m
}()

func validSampler(s Sampler) bool {
	_, ok := samplerSet[s]
	return ok
}

// SamplerSpec is the typed description of one sampling algorithm plus its
// per-sampler knobs — the Session API's replacement for dispatching on a
// bare Sampler string. The zero value selects the phase sampler with all
// defaults; knobs only apply to the samplers that read them and are rejected
// elsewhere, so a validated spec is unambiguous about what will run.
type SamplerSpec struct {
	// Name selects the algorithm (empty: SamplerPhase).
	Name Sampler `json:"name"`
	// SegmentLength overrides the per-segment walk length of the doubling
	// sampler (0: 4·n·⌈log2 n⌉). Only valid with SamplerLowCover.
	SegmentLength int `json:"segment_length,omitempty"`
	// MaxSteps bounds the Aldous-Broder cover walk (0: aldous.DefaultMaxSteps,
	// well beyond the O(mn) cover-time bound). Only valid with
	// SamplerAldousBroder.
	MaxSteps int `json:"max_steps,omitempty"`
	// Root sets the walk root vertex for the sequential walk samplers
	// (default 0). Only valid with SamplerAldousBroder and SamplerWilson;
	// the tree distribution is root-independent, but the per-seed tree is not.
	Root int `json:"root,omitempty"`
	// Weight is the stream's share of the engine-wide worker pool when
	// concurrent streams contend for slots: over any contended interval a
	// stream receives slot grants proportional to its weight (0: the fair
	// default 1.0). Weights never change WHICH tree an index produces —
	// output bytes are a pure function of (graph, spec knobs above, seed
	// base, index) — only how wall-clock capacity is divided. Valid for
	// every sampler.
	Weight float64 `json:"weight,omitempty"`
	// MaxWorkers caps how many of this stream's samples may compute at once
	// (0: no cap beyond the pool width). It bounds the stream's slot leases,
	// not the pool: a lone capped stream leaves the rest of the pool idle
	// for newcomers. Valid for every sampler.
	MaxWorkers int `json:"max_workers,omitempty"`
	// DeadlineMS is the request's end-to-end deadline in milliseconds
	// (0: none). The deadline covers the whole stream — admission-queue wait,
	// slot waits, and sampling — and exceeding it cancels the stream with
	// ErrDeadlineExceeded (HTTP 504 at the serving layer); samples already
	// delivered keep their bytes. Like Weight, deadlines never change WHICH
	// tree an index produces, only whether the request runs to completion.
	// Valid for every sampler.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// SpecFor returns the spec running the named sampler with default knobs.
func SpecFor(name Sampler) SamplerSpec { return SamplerSpec{Name: name} }

// Validate checks the spec: the sampler must be known (ErrUnknownSampler
// otherwise) and every set knob must belong to it.
func (s SamplerSpec) Validate() error {
	_, err := s.normalized()
	return err
}

// normalized applies the phase default and validates name and knobs.
func (s SamplerSpec) normalized() (SamplerSpec, error) {
	if s.Name == "" {
		s.Name = SamplerPhase
	}
	if !validSampler(s.Name) {
		return s, fmt.Errorf("%w: %q (known: %v)", ErrUnknownSampler, s.Name, Samplers())
	}
	if s.SegmentLength < 0 {
		return s, fmt.Errorf("engine: segment length must be >= 0, got %d", s.SegmentLength)
	}
	if s.SegmentLength > 0 && s.Name != SamplerLowCover {
		return s, fmt.Errorf("engine: segment length only applies to %q, not %q", SamplerLowCover, s.Name)
	}
	if s.MaxSteps < 0 {
		return s, fmt.Errorf("engine: max steps must be >= 0, got %d", s.MaxSteps)
	}
	if s.MaxSteps > 0 && s.Name != SamplerAldousBroder {
		return s, fmt.Errorf("engine: max steps only applies to %q, not %q", SamplerAldousBroder, s.Name)
	}
	if s.Root < 0 {
		return s, fmt.Errorf("engine: root must be >= 0, got %d", s.Root)
	}
	if s.Root > 0 && s.Name != SamplerAldousBroder && s.Name != SamplerWilson {
		return s, fmt.Errorf("engine: root only applies to %q and %q, not %q", SamplerAldousBroder, SamplerWilson, s.Name)
	}
	if s.Weight < 0 || math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) {
		return s, fmt.Errorf("engine: stream weight must be a finite value >= 0, got %g", s.Weight)
	}
	if s.MaxWorkers < 0 {
		return s, fmt.Errorf("engine: max workers must be >= 0, got %d", s.MaxWorkers)
	}
	if s.DeadlineMS < 0 {
		return s, fmt.Errorf("engine: deadline must be >= 0 ms, got %d", s.DeadlineMS)
	}
	return s, nil
}

// normalizedFor is normalized plus the graph-dependent check: the walk root
// must be a vertex. Sessions validate with it before dispatching, so an
// out-of-range root is a synchronous request error, never a worker panic.
func (s SamplerSpec) normalizedFor(n int) (SamplerSpec, error) {
	s, err := s.normalized()
	if err != nil {
		return s, err
	}
	if s.Root >= n {
		return s, fmt.Errorf("engine: root %d out of range [0,%d)", s.Root, n)
	}
	return s, nil
}
