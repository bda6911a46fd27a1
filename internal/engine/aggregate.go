package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/spanning"
)

// Distribution summarizes one integer cost metric across a batch.
type Distribution struct {
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	Total int64   `json:"total"`
}

// fold accumulates one observation.
func (d *Distribution) fold(v int64, first bool) {
	if first || v < d.Min {
		d.Min = v
	}
	if first || v > d.Max {
		d.Max = v
	}
	d.Total += v
}

// Summary is the aggregation of a batch's per-sample Stats and trees: the
// round-cost distributions the paper's experiments compare, plus the tree
// diversity counters the uniformity audit builds on.
type Summary struct {
	Samples       int          `json:"samples"`
	DistinctTrees int          `json:"distinct_trees"`
	Rounds        Distribution `json:"rounds"`
	Supersteps    Distribution `json:"supersteps"`
	TotalWords    Distribution `json:"total_words"`
	Phases        Distribution `json:"phases"`
	WalkSteps     Distribution `json:"walk_steps"`
}

// Summarize folds per-sample stats and trees into a Summary.
func Summarize(trees []*spanning.Tree, sts []core.Stats) Summary {
	s := Summary{Samples: len(trees)}
	seen := make(map[string]struct{}, len(trees))
	for _, t := range trees {
		if t != nil {
			seen[t.Encode()] = struct{}{}
		}
	}
	s.DistinctTrees = len(seen)
	for i, st := range sts {
		first := i == 0
		s.Rounds.fold(int64(st.Rounds), first)
		s.Supersteps.fold(int64(st.Supersteps), first)
		s.TotalWords.fold(st.TotalWords, first)
		s.Phases.fold(int64(st.Phases), first)
		s.WalkSteps.fold(int64(st.WalkSteps), first)
	}
	if n := len(sts); n > 0 {
		s.Rounds.Mean = float64(s.Rounds.Total) / float64(n)
		s.Supersteps.Mean = float64(s.Supersteps.Total) / float64(n)
		s.TotalWords.Mean = float64(s.TotalWords.Total) / float64(n)
		s.Phases.Mean = float64(s.Phases.Total) / float64(n)
		s.WalkSteps.Mean = float64(s.WalkSteps.Total) / float64(n)
	}
	return s
}

// Audit runs a batch on the session and audits it against the uniform
// distribution over the graph's exactly counted (and cached) spanning trees
// in one call — the serving layer's "audit uniformity" endpoint. It works on
// standalone (adhoc) sessions too, since it audits against the session's own
// pinned graph entry rather than a registry lookup.
func (s *Session) Audit(ctx context.Context, req StreamRequest) (*BatchResult, spanning.AuditResult, error) {
	res, err := s.Collect(ctx, req)
	if err != nil {
		return nil, spanning.AuditResult{}, err
	}
	count, err := s.ent.treeCount()
	if err != nil {
		return nil, spanning.AuditResult{}, err
	}
	audit, err := spanning.AuditTrees(s.ent.g, count, res.Trees)
	if err != nil {
		return nil, spanning.AuditResult{}, err
	}
	return res, audit, nil
}
