package engine

import (
	"encoding/hex"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// entry is one registered graph plus its lazily built, immutable
// precomputation. The graph itself is frozen at registration (the registry
// hands out the same *graph.Graph to every sampler, so callers must not
// mutate it — Register documents this contract). Each cached artifact is
// built at most once under its sync.Once and is read-only afterwards, which
// is what makes concurrent batches on a shared entry race-free.
type entry struct {
	key string
	g   *graph.Graph

	// The phase and exact samplers' prepared states, built together: the
	// exact variant shares the phase state's phase-0 power table.
	prepOnce sync.Once
	phase    *core.Prepared
	exact    *core.Prepared
	prepErr  error

	countOnce sync.Once
	count     atomic.Pointer[big.Int] // published by treeCount for lock-free Info reads
	countErr  error

	digestOnce sync.Once
	digestHex  string // hex GraphDigest, computed on first Info read
}

// digest returns the hex-encoded structural digest of the entry's graph —
// the identity replicated serving keys on: two replicas serving the same
// digest under the same spec and seed base MUST return byte-identical trees,
// and the client-side result cache uses it so a re-registered different
// graph under a reused key can never serve stale entries.
func (ent *entry) digest() string {
	ent.digestOnce.Do(func() {
		d := ent.g.Digest()
		ent.digestHex = hex.EncodeToString(d[:])
	})
	return ent.digestHex
}

// prepared returns the entry's phase-sampler and exact-sampler prepared
// state, building both on first use: core.Prepare, then its Exact variant,
// which reads the same phase-0 table. The call runs in an "engine/prepare"
// span: on the first draw of a graph it captures the full build (phase-0
// matrix squarings); on warm entries it is near-zero, documenting that the
// precomputation was reused. The inert zero Span makes untraced calls free.
func (ent *entry) prepared(e *Engine, tr *obs.Trace) (phase, exact *core.Prepared, err error) {
	sp := tr.StartSpan("engine/prepare")
	ent.prepOnce.Do(func() {
		ent.phase, ent.prepErr = core.Prepare(ent.g, e.cfg)
		if ent.prepErr == nil {
			ent.exact, ent.prepErr = ent.phase.Exact()
		}
	})
	sp.End()
	return ent.phase, ent.exact, ent.prepErr
}

// treeCount returns the exact spanning tree count (Matrix-Tree), cached.
func (ent *entry) treeCount() (*big.Int, error) {
	ent.countOnce.Do(func() {
		c, err := spanning.Count(ent.g)
		ent.countErr = err
		if err == nil {
			ent.count.Store(c)
		}
	})
	return ent.count.Load(), ent.countErr
}

// registry is the keyed graph store. Registration is rare and cheap;
// lookups are the hot path, so reads take an RWMutex read lock only.
type registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

func (r *registry) init() { r.entries = map[string]*entry{} }

func (r *registry) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// each calls fn for every registered entry under the read lock; fn must be
// fast and must not call back into the registry.
func (r *registry) each(fn func(*entry)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, ent := range r.entries {
		fn(ent)
	}
}

func (r *registry) get(key string) (*entry, error) {
	r.mu.RLock()
	ent, ok := r.entries[key]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, key)
	}
	return ent, nil
}

func (r *registry) add(key string, g *graph.Graph) error {
	if key == "" {
		return fmt.Errorf("engine: empty graph key")
	}
	if g == nil {
		return fmt.Errorf("engine: nil graph")
	}
	if !g.IsConnected() {
		return fmt.Errorf("engine: graph %q must be connected", key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.entries[key]; exists {
		return fmt.Errorf("engine: graph %q already registered", key)
	}
	r.entries[key] = &entry{key: key, g: g}
	return nil
}

func (r *registry) remove(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[key]; !ok {
		return false
	}
	delete(r.entries, key)
	return true
}

func (r *registry) keys() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for k := range r.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Register admits g under key. The engine takes ownership of g: callers
// must not mutate it afterwards, since cached precomputation and concurrent
// samplers alias it. Registration fails for empty keys, nil or disconnected
// graphs, and duplicate keys. With a data dir the registration is recorded
// in the on-disk manifest, so a restarted engine comes back with the same
// registry.
func (e *Engine) Register(key string, g *graph.Graph) error {
	if err := e.reg.add(key, g); err != nil {
		return err
	}
	e.persistRegistration(key, g)
	return nil
}

// RegisterFamily builds the named graph family at (approximately) n
// vertices — deterministically in seed for the random families — and
// registers it under key.
func (e *Engine) RegisterFamily(key, family string, n int, seed uint64) error {
	g, err := graph.FromFamily(family, n, prng.New(seed))
	if err != nil {
		return err
	}
	if err := e.reg.add(key, g); err != nil {
		return err
	}
	e.persistRegistration(key, g)
	return nil
}

// Deregister removes the graph under key, reporting whether it existed.
// In-flight batches holding the entry finish unaffected. With a data dir
// the manifest record is dropped too.
func (e *Engine) Deregister(key string) bool {
	if !e.reg.remove(key) {
		return false
	}
	e.forgetRegistration(key)
	return true
}

// Keys lists the registered graph keys, sorted.
func (e *Engine) Keys() []string { return e.reg.keys() }

// GraphInfo describes one registered graph.
type GraphInfo struct {
	Key      string `json:"key"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Digest is the hex SHA-256 structural digest of the graph (vertex count,
	// edge list, weights) — the cross-replica identity: replicas agreeing on
	// (Digest, spec, seed base, index) are guaranteed byte-identical results,
	// and client-side caches key on it.
	Digest string `json:"digest,omitempty"`
	// TreeCount is the exact spanning tree count as a decimal string, when
	// it has already been computed by an audit; empty otherwise (counting is
	// lazy — it is O(n^3) work the sampling path never needs).
	TreeCount string `json:"tree_count,omitempty"`
}

// Info returns a description of the graph under key.
func (e *Engine) Info(key string) (GraphInfo, error) {
	ent, err := e.reg.get(key)
	if err != nil {
		return GraphInfo{}, err
	}
	info := GraphInfo{Key: ent.key, Vertices: ent.g.N(), Edges: ent.g.M(), Digest: ent.digest()}
	if c := ent.count.Load(); c != nil {
		info.TreeCount = c.String()
	}
	return info, nil
}

// TreeCount returns the exact number of spanning trees of the graph under
// key (Matrix-Tree theorem), computing and caching it on first use.
func (e *Engine) TreeCount(key string) (*big.Int, error) {
	ent, err := e.reg.get(key)
	if err != nil {
		return nil, err
	}
	return ent.treeCount()
}
