package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// maxBatchSize caps a single batch or stream request. It is a service guard
// against runaway requests, not an engine limit; callers needing more issue
// several requests with disjoint seed bases.
const maxBatchSize = 1 << 20

// StreamRequest describes one streaming sampling job on a Session.
type StreamRequest struct {
	// K is the number of trees to draw.
	K int
	// Spec selects and configures the algorithm (zero value: the phase
	// sampler with default knobs), including the scheduling knobs Weight and
	// MaxWorkers.
	Spec SamplerSpec
	// SeedBase derives the per-sample seeds: sample i draws from the stream
	// prng.New(SeedBase).Split(i), so the result at each index is a pure
	// function of (graph, Spec, SeedBase) — worker count, scheduling, and
	// consumption order never show through.
	SeedBase uint64
	// StartIndex shifts the stream's index window: the job draws the K
	// samples at absolute indices StartIndex..StartIndex+K-1, each seeded by
	// its absolute index exactly as a StartIndex-0 stream covering the same
	// range would. This is the resume primitive for replicated serving: a
	// client (or router) whose stream died after delivering indices < j can
	// re-issue the request with StartIndex j on another replica and splice
	// the byte-identical remainder — zero duplicate or missing indices.
	// 0 (the default) starts at the beginning.
	StartIndex int
}

// SampleResult is one completed draw of a stream: the sample's index in the
// request (the determinism key — index i used seed stream i regardless of
// which worker ran it or when it arrived), its tree, and its cost stats.
type SampleResult struct {
	Index int
	Tree  *spanning.Tree
	Stats core.Stats
}

// Stream is an in-flight streaming job. Results arrive on Results() in
// completion order — generally NOT index order — as slots free up; the
// channel closes when the stream ends, after which Err reports how: nil for
// a complete run, a context error for cancellation, or the first sampler
// failure. A canceled stream stops dispatching new samples promptly, lets
// in-flight ones finish, and leaves the engine reusable.
//
// Backpressure: each stream owns a bounded result buffer. Once it fills, the
// stream stops leasing pool slots until the consumer catches up — a slow
// consumer therefore throttles only its own stream, while the engine-wide
// worker pool flows to concurrent streams that are still consuming.
type Stream struct {
	results chan SampleResult
	done    chan struct{}
	err     error // written once before done closes
}

// Results returns the channel of completed samples. It is closed when the
// stream ends; consume it to completion (or cancel the stream's context)
// to release the stream's lease promptly.
func (st *Stream) Results() <-chan SampleResult { return st.results }

// Err reports how the stream ended. It blocks until the stream has ended
// (which the closure of Results() guarantees): nil after all K samples were
// delivered, the context's error (wrapped) after cancellation, or the first
// sampler error wrapped in ErrSampleFailed.
func (st *Stream) Err() error {
	<-st.done
	return st.err
}

// Stream launches req on the session's graph and returns the in-flight job.
// Request validation errors (bad K, unknown sampler, misplaced knobs) are
// returned synchronously, as is ErrStreamLimit when the graph is already at
// the engine's concurrent-stream cap; everything later is reported via
// Stream.Err. The stream honors ctx: cancellation stops dispatching new
// samples, and the results channel closes as soon as in-flight samples
// drain.
//
// Concurrency is leased, not owned: every in-flight sample holds one slot of
// the engine-wide stream worker pool (Options.Workers slots,
// arbitrated across concurrent streams by Spec.Weight) and returns it the
// moment computation finishes, before delivering the result. The per-stream
// concurrency cap is Spec.MaxWorkers; unset, a lone stream may use the
// whole pool. None of this affects output bytes — sample i is a pure
// function of (graph, Spec, SeedBase, i).
func (s *Session) Stream(ctx context.Context, req StreamRequest) (*Stream, error) {
	if req.K < 1 {
		return nil, fmt.Errorf("engine: batch size must be >= 1, got %d", req.K)
	}
	if req.K > maxBatchSize {
		return nil, fmt.Errorf("engine: batch size %d exceeds cap %d; split the batch", req.K, maxBatchSize)
	}
	if req.StartIndex < 0 {
		return nil, fmt.Errorf("engine: start index must be >= 0, got %d", req.StartIndex)
	}
	if req.StartIndex > maxBatchSize-req.K {
		return nil, fmt.Errorf("engine: index window [%d,%d) exceeds cap %d; split the batch", req.StartIndex, req.StartIndex+req.K, maxBatchSize)
	}
	spec, err := req.Spec.normalizedFor(s.ent.g.N())
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e := s.eng
	// The request deadline (SamplerSpec.DeadlineMS) covers the WHOLE stream
	// from this point: admission-queue wait, slot waits, sampling, delivery.
	// It travels as a context cause so every detection site can tell "the
	// request ran out of ITS budget" (ErrDeadlineExceeded, HTTP 504) apart
	// from ambient cancellation.
	var timeoutCancel context.CancelFunc = func() {}
	if spec.DeadlineMS > 0 {
		ctx, timeoutCancel = context.WithTimeoutCause(ctx,
			time.Duration(spec.DeadlineMS)*time.Millisecond, ErrDeadlineExceeded)
	}
	maxWorkers := spec.MaxWorkers
	if maxWorkers <= 0 || maxWorkers > e.sched.slots {
		maxWorkers = e.sched.slots
	}
	if maxWorkers > req.K {
		maxWorkers = req.K
	}

	// The delivery buffer bounds results computed but not yet consumed to
	// twice the stream's concurrency cap: enough headroom that a consumer
	// keeping rough pace never stalls the compute side, small enough that an
	// abandoned consumer parks O(cap) results, not the whole batch.
	buffer := 2 * maxWorkers
	if buffer > req.K {
		buffer = req.K
	}
	st := &Stream{
		results: make(chan SampleResult, buffer),
		done:    make(chan struct{}),
	}
	// Admission: under the graph's stream cap this returns immediately; at
	// the cap it parks in the graph's bounded admission queue (hold-and-wait)
	// until a stream closes, the queue overflows (ErrStreamLimit), or the
	// deadline fires.
	lease, err := e.sched.open(ctx, s.ent.key, spec.Weight, maxWorkers, st.results)
	if err != nil {
		timeoutCancel()
		if !errors.Is(err, ErrStreamLimit) && ctx.Err() != nil {
			e.noteDeadline(ctx, stageAdmission)
			return nil, fmt.Errorf("engine: admission: %w", context.Cause(ctx))
		}
		return nil, err
	}
	e.streams.Add(1)
	base := prng.New(req.SeedBase)

	// Resolve the stream's trace: a request trace carried by ctx wins and
	// instruments every sample; otherwise ask the engine tracer, which
	// applies its 1-in-N sampling policy (and may decline). A trace we start
	// here is ours to finish when the stream ends — and it records only one
	// representative sample (index 0) in depth, because a full clique run
	// emits thousands of superstep/charge spans per sample and instrumenting
	// all K of them would make the one-in-N sampled stream measurably slower
	// than its peers. Forced (ctx-carried) traces take that cost knowingly.
	tr := obs.FromContext(ctx)
	ownTrace := false
	if tr == nil {
		tr = e.tracer.Start("engine/stream " + s.ent.key)
		ownTrace = tr != nil
	}

	// The cancel cause distinguishes how the stream died: the request
	// deadline (inherited cause ErrDeadlineExceeded), a server drain
	// (AbortStreams passes ErrDraining), or plain cancellation. The stream
	// registers its cancel with the engine so AbortStreams can reach it.
	ctx, cancelCause := context.WithCancelCause(ctx)
	cancel := func() { cancelCause(nil) }
	e.registerCancel(st, cancelCause)
	// inflight gates the feeder on delivery capacity: a sample may only
	// launch when a buffer slot is reserved for its result, so a stream
	// whose consumer stalls stops acquiring pool slots once the buffer
	// fills instead of piling up blocked workers.
	inflight := make(chan struct{}, buffer)
	errc := make(chan error, 1)
	var wg sync.WaitGroup

	go func() {
	feed:
		for i := req.StartIndex; i < req.StartIndex+req.K; i++ {
			select {
			case inflight <- struct{}{}:
			case <-ctx.Done():
				e.noteDeadline(ctx, stageDispatch)
				break feed
			}
			// Queue wait: how long this sample sat waiting for a pool slot
			// under the weighted scheduler. Histogram always; span when traced.
			waitSp := tr.StartSpan("engine/slot_wait")
			waitSp.SetInt("sample", int64(i))
			t0 := time.Now()
			err := lease.acquire(ctx)
			e.latSchedWait.Observe(time.Since(t0))
			waitSp.End()
			if err != nil {
				<-inflight
				if ctx.Err() == nil {
					// Not a cancellation: the slot grant itself failed (fault
					// injection or a future scheduler error path). Type it and
					// abort the stream rather than ending silently short.
					select {
					case errc <- fmt.Errorf("%w: sample %d of %q: %w", ErrSampleFailed, i, s.ent.key, err):
					default:
					}
					cancel()
				} else {
					e.noteDeadline(ctx, stageSlotWait)
				}
				break feed
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-inflight }()
				// The per-sample stream depends only on (SeedBase, i); Split
				// re-derives it independently of scheduling history — i is the
				// ABSOLUTE index, so a resumed window reproduces the same bytes.
				str := tr
				if ownTrace && i != req.StartIndex {
					str = nil
				}
				tree, cs, err := e.sampleOne(s.ent, spec, base.Split(uint64(i)), str, i)
				// The pool slot covers computation only: hand it back before
				// delivery so a slow consumer cannot pin pool width.
				lease.release()
				if err != nil {
					select {
					case errc <- fmt.Errorf("%w: sample %d of %q: %w", ErrSampleFailed, i, s.ent.key, err):
					default:
					}
					cancel()
					return
				}
				res := SampleResult{Index: i, Tree: tree}
				if cs != nil {
					res.Stats = *cs
				}
				select {
				case st.results <- res:
					e.samples.Add(1)
				case <-ctx.Done():
					e.noteDeadline(ctx, stageDeliver)
				}
			}(i)
		}
		wg.Wait()
		lease.close()
		select {
		case err := <-errc:
			st.err = err
			e.aborted.Add(1)
		default:
			if ctx.Err() != nil {
				// context.Cause surfaces WHY: the request's own deadline
				// (ErrDeadlineExceeded), a server drain (ErrDraining), or the
				// caller's plain cancellation (the context error itself).
				st.err = fmt.Errorf("engine: stream canceled: %w", context.Cause(ctx))
				e.aborted.Add(1)
			}
		}
		if ownTrace {
			tr.Finish()
		}
		e.deregisterCancel(st)
		cancel()
		timeoutCancel()
		close(st.done)
		close(st.results)
	}()
	return st, nil
}
