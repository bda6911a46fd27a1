package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// ErrStreamLimit marks a stream rejected by admission control; serving
// layers map it to 429. Without an admission queue (Options.
// AdmissionQueueDepth == 0) it fires as soon as a graph is at its
// concurrent-stream cap (Options.MaxStreamsPerGraph); with a queue it fires
// only when the queue itself is full, or when the request carries a
// deadline that the live queue-wait estimate says cannot be met. Collect
// and Audit run as streams internally, so batch jobs count toward (and are
// bounded by) the same cap.
var ErrStreamLimit = errors.New("engine: stream limit reached")

// scheduler is the engine-wide worker pool behind every Session.Stream: a
// fixed number of slots (Options.Workers) leased to the active streams
// by weight. A slot is held only while a sample is computing — workers hand
// their slot back before delivering the result to the stream's bounded
// buffer — so a stream whose consumer stalls stops competing for slots
// instead of pinning them, and the pool's full width flows to whoever can
// still make progress.
//
// Arbitration is stride scheduling: each stream lease carries a virtual
// "pass" advanced by 1/weight per granted slot, and a freed slot goes to the
// eligible waiter with the smallest pass. Over any contended interval each
// stream therefore receives slot grants proportional to its weight (up to
// its own MaxWorkers cap and demand). New leases join at the scheduler's
// current virtual time, so a newcomer competes fairly from its arrival
// instead of replaying the past.
//
// Admission is hold-and-wait: when a graph is at its concurrent-stream cap
// and a queue depth is configured, open parks the request in a bounded
// per-graph FIFO instead of rejecting it; a stream closing on that graph
// admits the head of the queue. ErrStreamLimit fires only when the queue is
// full or a deadline-bearing request provably cannot be admitted in time.
//
// The scheduler never influences WHAT a stream computes — sample i of a
// stream always draws from the seed stream derived from (SeedBase, i) — so
// any weight, cap, queueing, and arrival order produces byte-identical
// per-index output; the scheduler only reorders wall-clock completion.
type scheduler struct {
	mu          sync.Mutex
	slots       int // pool width (fixed at construction)
	free        int // slots not currently leased
	maxPerGraph int // admission cap per graph key (0: unlimited)
	queueDepth  int // admission queue depth per graph key (0: hard reject at cap)
	leases      map[*streamLease]struct{}
	perGraph    map[string]int // active stream count per graph key (admitted, incl. reserved)
	waiters     map[string][]*admitWaiter
	vtime       float64 // pass of the most recent grant (join point for new leases)
	seq         uint64  // admission order, the deterministic tie-break

	// queueWait records how long admitted requests sat in the admission
	// queue; holdDur records how long admitted streams held their admission
	// (open → close). Both feed the live Retry-After / feasibility estimate.
	queueWait *obs.Histogram
	holdDur   *obs.Histogram
}

func newScheduler(slots, maxPerGraph, queueDepth int) *scheduler {
	if slots < 1 {
		slots = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &scheduler{
		slots:       slots,
		free:        slots,
		maxPerGraph: maxPerGraph,
		queueDepth:  queueDepth,
		leases:      make(map[*streamLease]struct{}),
		perGraph:    make(map[string]int),
		waiters:     make(map[string][]*admitWaiter),
		queueWait:   obs.NewHistogram(),
		holdDur:     obs.NewHistogram(),
	}
}

// admitWaiter is one request parked in a graph's admission queue. ready is
// closed by the admitting stream-close AFTER the graph's stream count was
// incremented on the waiter's behalf, so admission can never overshoot the
// cap no matter how the waiter's goroutine is scheduled.
type admitWaiter struct {
	ready chan struct{}
}

// streamLease is one active stream's membership in the scheduler: its
// weight, its concurrency cap, and the accounting of slots it currently
// holds. The owning stream acquires a slot per in-flight sample and releases
// it the moment computation ends.
type streamLease struct {
	sched  *scheduler
	graph  string
	weight float64
	cap    int // max slots held at once (>= 1)
	opened time.Time

	// All fields below are guarded by sched.mu.
	granted int     // slots currently held
	want    int     // acquires blocked waiting for a slot
	pass    float64 // stride-scheduling virtual time
	seq     uint64

	// tokens carries grants from dispatch to blocked acquires. Buffered to
	// cap: outstanding (granted, unconsumed) tokens never exceed the lease's
	// concurrency cap, so dispatch never blocks sending while holding the
	// scheduler mutex.
	tokens chan struct{}

	// results is the stream's bounded delivery buffer, recorded here only so
	// metrics can report its depth (len is safe to read concurrently).
	results chan SampleResult
}

// newLeaseLocked builds and registers a lease. The caller holds s.mu and has
// already accounted the stream in perGraph (directly below the cap check, or
// as an admission reservation made by the closing stream that admitted it).
func (s *scheduler) newLeaseLocked(graph string, weight float64, cap int, results chan SampleResult) *streamLease {
	s.seq++
	l := &streamLease{
		sched:   s,
		graph:   graph,
		weight:  weight,
		cap:     cap,
		opened:  time.Now(),
		pass:    s.vtime,
		seq:     s.seq,
		tokens:  make(chan struct{}, cap),
		results: results,
	}
	s.leases[l] = struct{}{}
	return l
}

// open admits a new stream on graph. weight <= 0 takes the fair default 1;
// cap is clamped to [1, slots]; results is the stream's delivery buffer,
// recorded for the queue-depth gauge. When the graph is at the engine's
// concurrent-stream cap, the request waits in the graph's bounded admission
// queue (blocking until admitted or ctx ends) if one is configured;
// ErrStreamLimit is returned when there is no queue, the queue is full, or
// ctx carries a deadline the live wait estimate says cannot be met.
func (s *scheduler) open(ctx context.Context, graph string, weight float64, cap int, results chan SampleResult) (*streamLease, error) {
	if weight <= 0 {
		weight = 1
	}
	if cap > s.slots {
		cap = s.slots
	}
	if cap < 1 {
		cap = 1
	}
	s.mu.Lock()
	if s.maxPerGraph > 0 && s.perGraph[graph] >= s.maxPerGraph {
		if s.queueDepth <= 0 {
			defer s.mu.Unlock()
			return nil, fmt.Errorf("%w: graph %q already has %d streams in flight (cap %d)",
				ErrStreamLimit, graph, s.perGraph[graph], s.maxPerGraph)
		}
		if queued := len(s.waiters[graph]); queued >= s.queueDepth {
			defer s.mu.Unlock()
			return nil, fmt.Errorf("%w: graph %q admission queue is full (%d active, %d queued, queue depth %d)",
				ErrStreamLimit, graph, s.perGraph[graph], queued, s.queueDepth)
		}
		if dl, ok := ctx.Deadline(); ok {
			if est := s.estimatedWaitLocked(graph); est > 0 && time.Until(dl) < est {
				defer s.mu.Unlock()
				return nil, fmt.Errorf("%w: graph %q deadline cannot be met (estimated admission wait %v exceeds remaining %v)",
					ErrStreamLimit, graph, est.Round(time.Millisecond), time.Until(dl).Round(time.Millisecond))
			}
		}
		w := &admitWaiter{ready: make(chan struct{})}
		s.waiters[graph] = append(s.waiters[graph], w)
		s.mu.Unlock()
		t0 := time.Now()
		select {
		case <-w.ready:
			s.queueWait.Observe(time.Since(t0))
		case <-ctx.Done():
			s.mu.Lock()
			if !s.removeWaiterLocked(graph, w) {
				// Admission raced the cancellation: the reservation made on
				// our behalf must flow to the next waiter (or back to the cap).
				if s.perGraph[graph]--; s.perGraph[graph] <= 0 {
					delete(s.perGraph, graph)
				}
				s.admitNextLocked(graph)
			}
			s.mu.Unlock()
			return nil, ctx.Err()
		}
		s.mu.Lock()
		// perGraph was incremented by the admitting close; just build the lease.
		l := s.newLeaseLocked(graph, weight, cap, results)
		s.mu.Unlock()
		return l, nil
	}
	s.perGraph[graph]++
	l := s.newLeaseLocked(graph, weight, cap, results)
	s.mu.Unlock()
	return l, nil
}

// removeWaiterLocked unlinks w from graph's queue, reporting whether it was
// still queued (false: it was already admitted).
func (s *scheduler) removeWaiterLocked(graph string, w *admitWaiter) bool {
	q := s.waiters[graph]
	for i, cand := range q {
		if cand == w {
			q = append(q[:i], q[i+1:]...)
			if len(q) == 0 {
				delete(s.waiters, graph)
			} else {
				s.waiters[graph] = q
			}
			return true
		}
	}
	return false
}

// admitNextLocked hands a freed admission on graph to the head of its queue:
// the stream count is incremented on the waiter's behalf before its ready
// channel closes, so the cap holds by construction.
func (s *scheduler) admitNextLocked(graph string) {
	q := s.waiters[graph]
	if len(q) == 0 {
		return
	}
	if s.maxPerGraph > 0 && s.perGraph[graph] >= s.maxPerGraph {
		return
	}
	w := q[0]
	if len(q) == 1 {
		delete(s.waiters, graph)
	} else {
		s.waiters[graph] = q[1:]
	}
	s.perGraph[graph]++
	close(w.ready)
}

// estimatedWaitLocked estimates how long a request arriving NOW would sit in
// graph's admission queue, from live stats: measured queue waits when any
// exist, else measured stream hold times scaled by the queue position, else
// 0 (unknown — callers admit optimistically and let the deadline decide).
func (s *scheduler) estimatedWaitLocked(graph string) time.Duration {
	queued := len(s.waiters[graph])
	if qw := s.queueWait.Snapshot(); qw.Count > 0 {
		return time.Duration(qw.P50*float64(time.Second)) * time.Duration(queued+1)
	}
	if s.maxPerGraph > 0 {
		if hd := s.holdDur.Snapshot(); hd.Count > 0 {
			per := time.Duration(hd.P50 * float64(time.Second))
			return per * time.Duration(queued+1) / time.Duration(s.maxPerGraph)
		}
	}
	return 0
}

// QueueStats is a live snapshot of one graph's admission queue, the basis of
// the serving layer's Retry-After computation and 429 body.
type QueueStats struct {
	// Queued is how many requests are parked in the graph's admission queue.
	Queued int `json:"queued"`
	// EstimatedWait is the live estimate of how long a request arriving now
	// would wait for admission (0: no data yet — first contention).
	EstimatedWait time.Duration `json:"-"`
	// WaitP50 is the median measured admission-queue wait (0: none measured).
	WaitP50 time.Duration `json:"-"`
}

// queueStats snapshots graph's admission queue.
func (s *scheduler) queueStats(graph string) QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	qs := QueueStats{Queued: len(s.waiters[graph])}
	qs.EstimatedWait = s.estimatedWaitLocked(graph)
	if qw := s.queueWait.Snapshot(); qw.Count > 0 {
		qs.WaitP50 = time.Duration(qw.P50 * float64(time.Second))
	}
	return qs
}

// dispatch hands free slots to eligible waiters, lowest pass first. Called
// under s.mu whenever slots free up or demand appears.
func (s *scheduler) dispatch() {
	for s.free > 0 {
		var best *streamLease
		for l := range s.leases {
			if l.want == 0 || l.granted >= l.cap {
				continue
			}
			if best == nil || l.pass < best.pass || (l.pass == best.pass && l.seq < best.seq) {
				best = l
			}
		}
		if best == nil {
			return
		}
		s.free--
		best.want--
		best.granted++
		// Virtual time advances to the granted lease's PRE-increment pass
		// (the minimum among demanders): a newcomer joining at vtime then
		// competes immediately instead of waiting out the full stride a
		// low-weight lease just added to its own pass.
		if best.pass > s.vtime {
			s.vtime = best.pass
		}
		best.pass += 1 / best.weight
		best.tokens <- struct{}{}
	}
}

// acquire blocks until the lease is granted a pool slot or ctx is done.
func (l *streamLease) acquire(ctx context.Context) error {
	s := l.sched
	s.mu.Lock()
	l.want++
	s.dispatch()
	s.mu.Unlock()
	select {
	case <-l.tokens:
		if err := faultinject.Hook(faultinject.PointSchedAcquire); err != nil {
			l.release()
			return fmt.Errorf("engine: slot grant: %w", err)
		}
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-l.tokens:
			// The grant raced the cancellation; hand the slot straight back.
			l.granted--
			s.free++
			s.dispatch()
		default:
			l.want--
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// release returns one held slot to the pool.
func (l *streamLease) release() {
	s := l.sched
	s.mu.Lock()
	l.granted--
	s.free++
	s.dispatch()
	s.mu.Unlock()
}

// close retires the lease once its stream has fully wound down (no acquires
// in flight). Any token granted but never consumed is returned to the pool,
// and the freed admission goes to the head of the graph's admission queue.
func (l *streamLease) close() {
	s := l.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		select {
		case <-l.tokens:
			l.granted--
			s.free++
		default:
			delete(s.leases, l)
			s.holdDur.Observe(time.Since(l.opened))
			if s.perGraph[l.graph]--; s.perGraph[l.graph] <= 0 {
				delete(s.perGraph, l.graph)
			}
			s.admitNextLocked(l.graph)
			s.dispatch()
			return
		}
	}
}

// StreamPoolMetrics is the scheduler-wide slice of Engine.Metrics: the
// stream worker pool's width and instantaneous utilization.
type StreamPoolMetrics struct {
	// Workers is the pool width — the maximum number of samples computing
	// at once across ALL streams (Options.Workers).
	Workers int `json:"workers"`
	// SlotsInUse is how many slots are currently leased to computing samples.
	SlotsInUse int `json:"slots_in_use"`
	// ActiveStreams is the number of streams currently holding leases.
	ActiveStreams int `json:"active_streams"`
	// QueuedStreams is the number of requests parked in admission queues
	// across all graphs, waiting for an active stream to close.
	QueuedStreams int `json:"queued_streams"`
	// WaitingAcquires is how many in-flight samples are parked waiting for a
	// slot — persistent nonzero values mean the pool is the bottleneck.
	WaitingAcquires int `json:"waiting_acquires"`
}

// GraphStreamMetrics is the per-graph slice of the stream gauges reported
// under Metrics.StreamsByGraph (and /v1/stats).
type GraphStreamMetrics struct {
	// ActiveStreams is the number of this graph's streams currently open.
	ActiveStreams int `json:"active_streams"`
	// QueuedStreams is the number of requests parked in this graph's
	// admission queue (hold-and-wait behind the concurrent-stream cap).
	QueuedStreams int `json:"queued_streams"`
	// SlotsInUse is how many pool slots this graph's streams hold right now.
	SlotsInUse int `json:"slots_in_use"`
	// QueueDepth is the total number of computed results sitting in this
	// graph's per-stream delivery buffers, not yet read by their consumers.
	// A persistently full queue (relative to the buffer bound) identifies a
	// slow consumer — its stream self-throttles rather than pinning slots.
	QueueDepth int `json:"queue_depth"`
	// WaitingAcquires is how many of this graph's samples are waiting for a
	// pool slot.
	WaitingAcquires int `json:"waiting_acquires"`
}

// snapshot reports pool-wide and per-graph gauges.
func (s *scheduler) snapshot() (StreamPoolMetrics, map[string]GraphStreamMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pool := StreamPoolMetrics{
		Workers:       s.slots,
		SlotsInUse:    s.slots - s.free,
		ActiveStreams: len(s.leases),
	}
	var byGraph map[string]GraphStreamMetrics
	if len(s.leases) > 0 || len(s.waiters) > 0 {
		byGraph = make(map[string]GraphStreamMetrics, len(s.perGraph))
		for l := range s.leases {
			g := byGraph[l.graph]
			g.ActiveStreams++
			g.SlotsInUse += l.granted
			g.WaitingAcquires += l.want
			if l.results != nil {
				g.QueueDepth += len(l.results)
			}
			byGraph[l.graph] = g
			pool.WaitingAcquires += l.want
		}
		for key, q := range s.waiters {
			g := byGraph[key]
			g.QueuedStreams += len(q)
			byGraph[key] = g
			pool.QueuedStreams += len(q)
		}
	}
	return pool, byGraph
}
