package solver

import (
	"context"

	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func init() { Register(paperSolver{}) }

// paperSolver is the SPAA 2018 pipeline: Algorithm 1 on the
// weak-reachability order (Theorem 5) sequentially, the Theorem 9 election
// pipeline distributed.  It is the default strategy, and its outputs are the
// reference every determinism test pins down.
type paperSolver struct{}

func (paperSolver) Name() string { return "paper" }

func (paperSolver) Describe() string {
	return "SPAA 2018 wcol-order pipeline (Theorem 5 sequential, Theorem 9 distributed)"
}

func (paperSolver) Solve(ctx context.Context, g *graph.Graph, r int, sub Substrate) (Result, error) {
	o, err := sub.Order(ctx, r)
	if err != nil {
		return Result{}, err
	}
	sets, err := sub.WReach(ctx, r, 2*r)
	if err != nil {
		return Result{}, err
	}
	D := domset.AlgorithmOne(g, o, r)
	return Result{
		Set:        D,
		LowerBound: domset.ScatteredLowerBound(g, r, D),
		Wcol:       order.WColOfSets(sets),
	}, nil
}

func (paperSolver) SolveDist(g *graph.Graph, r int, opts DistOptions) (DistResult, error) {
	model := dist.CongestBC
	if opts.ModelSet {
		model = opts.Model
	}
	run := distalgo.RunDomSet
	if opts.RefinedOrder {
		run = distalgo.RunDomSetRefined
	}
	res, err := run(g, r, model, opts.Sim)
	if err != nil {
		return DistResult{}, err
	}
	return DistResult{
		Set:             res.Set,
		Rounds:          res.Stats.Rounds,
		Messages:        res.Stats.Messages,
		MaxMessageWords: res.Stats.MaxMessageWords,
	}, nil
}
