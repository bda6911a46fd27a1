package core

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
)

// protocol holds the declaration of every superstep the phase runner runs
// on the clique (Algorithms 2-4), each written once: a sending function that
// names each sending unit's machine and emits its messages, and a receiving
// function per message, which the simulator runs on its charged or its
// materializing executor (clique/exec.go). The declarations are built once
// per sampler state and act on that state's current draw, phase and
// segment; the runner sets a dense superstep's unit lists before it runs
// it. The truncation search's collection steps are clique.Bulk
// declarations, whose charged forms read the level tables (truncation.go).
type protocol struct {
	assign    clique.Step[assignMsg]
	distreq   clique.Dense
	distreply clique.Dense
	count     clique.Bulk[countMsg]
	tally     clique.Bulk[tallyMsg]
	report    clique.Bulk[tallyMsg]
	submatrix clique.Dense
	notify    clique.Step[int]
	request   clique.Step[fvReq]
	reply     clique.Step[fvReply]
	sample    clique.Step[fvEdge]
}

// Payloads, one per message shape. Each packs into exactly the words its
// superstep charges.
type (
	// assignMsg: leader -> pair machine, the pair and its midpoint count.
	assignMsg struct{ p, q, count int }
	// countMsg: leader -> pair machine oi, the pair's prefix count and the
	// mf occurrence query (-1: none). It packs as (p, q, c, occ+1).
	countMsg struct{ oi, c, occ int }
	// tallyMsg: a count of vertex v (pair machine -> vertex machine, and
	// vertex machine -> leader), or with cnt < 0 the one-word mf answer v.
	tallyMsg struct{ v, cnt int }
	// fvReq: first-visit vertex v -> neighbor, with v's Schur-walk
	// predecessor.
	fvReq struct{ v, prev int }
	// fvReply: neighbor u -> first-visit vertex, u's Bayes weight.
	fvReply struct {
		u int
		w float64
	}
	// fvEdge: first-visit vertex v -> leader, its sampled entry neighbor u.
	fvEdge struct{ u, v int }
)

func newProtocol(r *phaseRunner) *protocol {
	return &protocol{
		// Algorithm 2 steps 2-3: the leader designates machine k mod n for
		// the k-th distinct pair and sends it the pair's count. Machine m's
		// j-th assignment is therefore pair j·n+m, so it files its state by
		// arrival alone.
		assign: clique.Step[assignMsg]{
			Name: "core/assign",
			Send: func(o *clique.Out[assignMsg]) error {
				o.From(r.leader)
				for oi, key := range r.pairOrder {
					o.Send(r.pairMachine[oi], 3, assignMsg{key.p, key.q, r.pairCounts[oi]})
				}
				return nil
			},
			Recv: func(m int, a assignMsg) {
				oi := r.pairsOn[m]*r.n + m
				r.pairsOn[m]++
				ps := r.psPool[oi]
				ps.key = pairKey{p: a.p, q: a.q}
				ps.weights = growSlice(ps.weights, r.sub.Size())
				ps.seq = growSlice(ps.seq, a.count)
				r.orderedPS[oi] = ps
			},
			Encode: func(dst []clique.Word, a assignMsg) []clique.Word { return clique.AppendInts(dst, a.p, a.q, a.count) },
			Decode: func(_ int, w []clique.Word) assignMsg { return assignMsg{w[0].Int(), w[1].Int(), w[2].Int()} },
		},
		// Algorithm 2 step 4: every pair machine asks every subset vertex
		// machine j for its midpoint weight; the request names the pair and
		// j, which the pattern itself implies.
		distreq: clique.Dense{Name: "core/distreq", Words: 3},
		// Formula 1: vertex machine j answers pair (p,q) with the
		// unnormalized midpoint weight P^(δ/2)[p,j]·P^(δ/2)[j,q]. Machine j
		// holds row j and column j of every power (Algorithm 1 step 3), so
		// both factors are local.
		distreply: clique.Dense{
			Name: "core/distreply", Words: 4,
			Values: func(oi int, row []float64) {
				key, half := r.pairOrder[oi], r.half
				rowP := half.Row(key.p)
				for j := range row {
					row[j] = rowP[j] * half.At(j, key.q)
				}
			},
			Into: func(oi int) []float64 { return r.orderedPS[oi].weights },
		},
		// Algorithm 3, one truncation candidate: the leader sends each pair
		// machine its prefix count, plus the mf occurrence query for the
		// owner of the prefix's last slot. The collection's three steps are
		// also declared in charged forms, which read the level tables
		// (truncation.go).
		count: clique.Bulk[countMsg]{Charge: r.chargeCount, Step: clique.Step[countMsg]{
			Name: "core/bs/count",
			Send: func(o *clique.Out[countMsg]) error {
				o.From(r.leader)
				r.counts.reset()
				r.bsMf = -1
				s := r.bsSlots
				counts := growSlice(r.prefixCount, len(r.pairOrder))
				clear(counts)
				for _, oi := range r.slotIdx[1 : s+1] {
					counts[oi]++
				}
				r.prefixCount = counts
				for oi, c := range counts {
					occ := -1
					if s >= 1 && oi == r.slotIdx[s] {
						occ = r.slotOcc[s]
					}
					o.Send(r.pairMachine[oi], 4, countMsg{oi, c, occ})
				}
				return nil
			},
			Recv: func(_ int, c countMsg) { r.pairPrefix[c.oi], r.pairOcc[c.oi] = c.c, c.occ },
			// The receiving machine finds its pair (p, q) through the pair
			// code table, which stands in for a search of its own pairs.
			Encode: func(dst []clique.Word, c countMsg) []clique.Word {
				key := r.pairOrder[c.oi]
				return clique.AppendInts(dst, key.p, key.q, c.c, c.occ+1)
			},
			Decode: func(_ int, w []clique.Word) countMsg {
				return countMsg{r.pairLookup(w[0].Int(), w[1].Int()), w[2].Int(), w[3].Int() - 1}
			},
		}},
		// Each pair machine tallies its sequence prefix and sends every
		// vertex machine its count — the compressed multiset; the mf owner
		// answers the leader.
		tally: clique.Bulk[tallyMsg]{Charge: r.chargeTally, Step: clique.Step[tallyMsg]{
			Name: "core/bs/tally",
			Send: func(o *clique.Out[tallyMsg]) error {
				for oi, ps := range r.orderedPS {
					machine := r.pairMachine[oi]
					o.From(machine)
					prefix, occ := r.pairPrefix[oi], r.pairOcc[oi]
					if prefix > len(ps.seq) {
						return fmt.Errorf("pair machine %d asked for prefix %d of %d midpoints", machine, prefix, len(ps.seq))
					}
					local := &r.local
					local.reset()
					for _, v := range ps.seq[:prefix] {
						local.add(v, 1)
					}
					for _, v := range local.touched {
						o.Send(r.hosts[v], 2, tallyMsg{v, local.val[v]})
					}
					if occ >= 1 {
						if occ > len(ps.seq) {
							return fmt.Errorf("pair machine %d mf query %d beyond %d midpoints", machine, occ, len(ps.seq))
						}
						o.Send(r.leader, 1, tallyMsg{ps.seq[occ-1], -1})
					}
				}
				return nil
			},
			Recv: func(_ int, t tallyMsg) {
				if t.cnt < 0 {
					r.bsMf = t.v
					return
				}
				r.totals.add(t.v, t.cnt)
			},
			Encode: func(dst []clique.Word, t tallyMsg) []clique.Word {
				if t.cnt < 0 {
					return clique.AppendInts(dst, t.v)
				}
				return clique.AppendInts(dst, t.v, t.cnt)
			},
			Decode: func(_ int, w []clique.Word) tallyMsg {
				if len(w) == 1 {
					return tallyMsg{w[0].Int(), -1}
				}
				return tallyMsg{w[0].Int(), w[1].Int()}
			},
		}},
		// Every vertex machine with a nonzero tally reports it to the leader.
		report: clique.Bulk[tallyMsg]{Charge: r.chargeReport, Step: clique.Step[tallyMsg]{
			Name: "core/bs/report",
			Send: func(o *clique.Out[tallyMsg]) error {
				for _, v := range r.totals.touched {
					o.From(r.hosts[v])
					o.Send(r.leader, 2, tallyMsg{v, r.totals.val[v]})
				}
				return nil
			},
			Recv:   func(_ int, t tallyMsg) { r.counts.add(t.v, t.cnt) },
			Encode: func(dst []clique.Word, t tallyMsg) []clique.Word { return clique.AppendInts(dst, t.v, t.cnt) },
			Decode: func(_ int, w []clique.Word) tallyMsg { return tallyMsg{w[0].Int(), w[1].Int()} },
		}},
		// §2.1.3: after the leader broadcasts the vertex set it needs
		// (needList), each machine hosting one sends its row restricted
		// to the set. Machine a's entry for b is received into row b of the
		// leader's block.
		submatrix: clique.Dense{
			Name: "core/submatrix", Words: 3,
			Values: func(b int, row []float64) {
				half, vb := r.half, r.needList[b]
				for a, va := range r.needList {
					row[a] = half.At(va, vb)
				}
			},
			Into: func(b int) []float64 { return r.block.Row(b) },
		},
		// Algorithm 4 step 4: the leader tells each newly visited vertex its
		// predecessor in the Schur walk.
		notify: clique.Step[int]{
			Name: "core/fve/notify",
			Send: func(o *clique.Out[int]) error {
				o.From(r.leader)
				for _, vis := range r.visits {
					o.Send(vis.v, 1, vis.prev)
				}
				return nil
			},
			Recv:   func(v, prev int) { r.fvPrev[v] = prev },
			Encode: func(dst []clique.Word, prev int) []clique.Word { return clique.AppendInts(dst, prev) },
			Decode: func(_ int, w []clique.Word) int { return w[0].Int() },
		},
		// Algorithm 4 steps 5-6: each notified vertex asks its G-neighbors
		// for the Bayes weight.
		request: clique.Step[fvReq]{
			Name: "core/fve/request",
			Send: func(o *clique.Out[fvReq]) error {
				for _, vis := range r.visits {
					o.From(vis.v)
					req := fvReq{vis.v, r.fvPrev[vis.v]}
					r.g.VisitNeighbors(vis.v, func(h graph.Half) { o.Send(h.To, 2, req) })
				}
				return nil
			},
			Recv: func(u int, q fvReq) {
				r.fvReqBuf[r.fvReqEnd[u]] = q
				r.fvReqEnd[u]++
			},
			Encode: func(dst []clique.Word, q fvReq) []clique.Word { return clique.AppendInts(dst, q.v, q.prev) },
			Decode: func(_ int, w []clique.Word) fvReq { return fvReq{w[0].Int(), w[1].Int()} },
		},
		// Neighbor u answers each request with Q[prev,u]·w(u,v)/degS(u).
		// Replies reach v in ascending u on both executors, the order v
		// samples in.
		reply: clique.Step[fvReply]{
			Name: "core/fve/reply",
			Send: func(o *clique.Out[fvReply]) error {
				for u, end := range r.fvReqEnd {
					reqs := r.fvReqBuf[r.fvReqOff[u]:end]
					if len(reqs) == 0 {
						continue
					}
					o.From(u)
					var degS float64
					r.g.VisitNeighbors(u, func(h graph.Half) {
						if r.sub.Contains(h.To) {
							degS += h.Weight
						}
					})
					if degS <= 0 {
						return fmt.Errorf("machine %d adjacent to S-vertex %d has degS=0", u, reqs[0].v)
					}
					for _, q := range reqs {
						o.Send(q.v, 2, fvReply{u, r.shortcut(q.prev, u) * r.g.Weight(u, q.v) / degS})
					}
				}
				return nil
			},
			Recv: func(v int, a fvReply) {
				r.fvEntBuf[r.fvEntEnd[v]] = a
				r.fvEntEnd[v]++
			},
			Encode: func(dst []clique.Word, a fvReply) []clique.Word {
				return append(clique.AppendInts(dst, a.u), clique.FloatWord(a.w))
			},
			Decode: func(_ int, w []clique.Word) fvReply { return fvReply{w[0].Int(), w[1].Float()} },
		},
		// Algorithm 4 step 7: each visited vertex samples its entry edge and
		// reports it to the leader.
		sample: clique.Step[fvEdge]{
			Name: "core/fve/sample",
			Send: func(o *clique.Out[fvEdge]) error {
				for _, vis := range r.visits {
					v := vis.v
					o.From(v)
					es := r.fvEntBuf[r.fvEntOff[v]:r.fvEntEnd[v]]
					weights := growSlice(r.weights, len(es))
					r.weights = weights
					for k, e := range es {
						weights[k] = e.w
					}
					choice, err := r.rng(v).WeightedIndex(weights)
					if err != nil {
						return fmt.Errorf("vertex %d has no mass on any entry edge: %w", v, err)
					}
					o.Send(r.leader, 2, fvEdge{es[choice].u, v})
				}
				return nil
			},
			Recv:   func(_ int, e fvEdge) { r.fvEdge[e.v] = e.u },
			Encode: func(dst []clique.Word, e fvEdge) []clique.Word { return clique.AppendInts(dst, e.u, e.v) },
			Decode: func(_ int, w []clique.Word) fvEdge { return fvEdge{w[0].Int(), w[1].Int()} },
		},
	}
}
