package engine

import (
	"context"

	"bedom/internal/graph"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// engineSubstrate adapts the engine's cached substrate accessors to the
// solver.Substrate interface.  It fetches under ctx, the build context of
// the result build it serves, and ignores the context a solver passes: ctx
// carries the frame that keeps the solve's build time exclusive and inherits
// no requester deadline.  allHit tracks whether every fetch was a cache hit
// (the query's CacheHit report).
type engineSubstrate struct {
	ctx    context.Context
	e      *Engine
	g      *graph.Graph
	gen    uint64
	allHit bool
}

func (s *engineSubstrate) Order(_ context.Context, r int) (*order.Order, error) {
	o, hit, err := s.e.orderFor(s.ctx, s.g, s.gen, r)
	s.allHit = s.allHit && hit
	return o, err
}

func (s *engineSubstrate) WReach(_ context.Context, orderR, r int) ([][]int, error) {
	sets, hit, err := s.e.wreachFor(s.ctx, s.g, s.gen, orderR, r)
	s.allHit = s.allHit && hit
	return sets, err
}

// domsetFor returns the (cached) domination result of the given solver
// strategy for radius r.  Results are substrates like orders and covers:
// keyed by (generation, radius, solver name), they invalidate on mutation
// and re-registration exactly like the substrates they were computed from —
// including across WAL replay, where recovered graphs start a fresh
// generation.  hit reports the legacy CacheHit contract: true when the
// result (or, on a result miss, every substrate the solver fetched) was
// served from the cache.
func (e *Engine) domsetFor(ctx context.Context, g *graph.Graph, gen uint64, r int, s solver.Solver) (solver.Result, bool, error) {
	key := substrateKey{gen: gen, kind: kindDomset, a: r, solver: s.Name()}
	var warm bool
	v, hit, err := e.fetch(ctx, key, func(ctx context.Context) (any, error) {
		sub := &engineSubstrate{ctx: ctx, e: e, g: g, gen: gen, allHit: true}
		res, err := s.Solve(ctx, g, r, sub)
		if err != nil {
			return nil, err
		}
		warm = sub.allHit
		return res, nil
	})
	res, _ := v.(solver.Result)
	return res, hit || warm, err
}
