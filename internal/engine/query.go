package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"bedom/internal/connect"
	"bedom/internal/cover"
	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/graph"
	"bedom/internal/obs"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// Kind selects the query pipeline.
type Kind string

// Query kinds.  The sequential kinds reproduce the facade pipelines
// bit-for-bit (same substrates, same algorithms); the distributed kinds run
// the simulator-backed pipelines of Theorems 9/10.
const (
	// KindDominatingSet is the sequential Theorem 5 pipeline.
	KindDominatingSet Kind = "domset"
	// KindConnectedDominatingSet is the sequential Corollary 13 pipeline.
	KindConnectedDominatingSet Kind = "cds"
	// KindCover is the sparse r-neighborhood cover of Theorem 4.
	KindCover Kind = "cover"
	// KindDistributedDominatingSet is the simulator-backed Theorem 9 pipeline.
	KindDistributedDominatingSet Kind = "dist-domset"
	// KindDistributedConnected is the simulator-backed Theorem 10 pipeline.
	KindDistributedConnected Kind = "dist-cds"
)

// Request describes one domination query.
type Request struct {
	// Graph names a registered graph.  Ignored when G is set.
	Graph string `json:"graph,omitempty"`
	// G queries an unregistered graph directly (the facade path).  The graph
	// must not be mutated concurrently with the query.
	G *graph.Graph `json:"-"`
	// Kind selects the pipeline.
	Kind Kind `json:"kind"`
	// R is the domination / covering radius (≥ 1).
	R int `json:"r"`
	// Solver selects the domination strategy ("" = the default paper
	// pipeline; see internal/solver for the registry).  Honoured by the
	// domset and dist-domset kinds; the remaining kinds are pinned to the
	// paper pipeline and reject other names.
	Solver string `json:"solver,omitempty"`
	// Timeout bounds this query (0 = the engine's DefaultTimeout).
	Timeout time.Duration `json:"-"`

	// Distributed-kind tuning (ignored by sequential kinds).

	// Model is the communication model (default for the zero value: the
	// paper's CONGEST_BC).
	Model Model `json:"-"`
	// ModelSet marks Model as explicit, allowing LOCAL to be requested.
	ModelSet bool `json:"-"`
	// MaxRounds aborts runaway protocols (0 = generous default).
	MaxRounds int `json:"-"`
	// RefinedOrder selects the refined distributed order pipeline.
	RefinedOrder bool `json:"-"`
	// IncludeClusters attaches the full cluster map to cover responses
	// (potentially large; off by default).
	IncludeClusters bool `json:"-"`
}

func (r Request) simOptions() dist.Options {
	return dist.Options{MaxRounds: r.MaxRounds}
}

func (r Request) distOptions() solver.DistOptions {
	return solver.DistOptions{
		Model:        r.Model,
		ModelSet:     r.ModelSet,
		Sim:          r.simOptions(),
		RefinedOrder: r.RefinedOrder,
	}
}

// Response is the outcome of a query.
type Response struct {
	// Graph echoes the registered name ("" for direct-graph queries).
	Graph string `json:"graph,omitempty"`
	// Kind and R echo the request.
	Kind Kind `json:"kind"`
	R    int  `json:"r"`
	// Solver is the strategy that served a solver-dispatched kind (empty for
	// kinds pinned to the paper pipeline).
	Solver string `json:"solver,omitempty"`

	// Set is the computed (connected) dominating set (nil for cover queries).
	Set []int `json:"set,omitempty"`
	// Size is len(Set), or the number of clusters for cover queries.
	Size int `json:"size"`
	// LowerBound is the certified lower bound on the optimum (sequential
	// domination kinds).
	LowerBound int `json:"lower_bound,omitempty"`
	// Wcol is the measured weak colouring number backing the approximation
	// guarantee (sequential domination kinds).
	Wcol int `json:"wcol,omitempty"`

	// DomSet is, for connected kinds, the underlying plain dominating set.
	DomSet []int `json:"dom_set,omitempty"`

	// Cover statistics (cover queries only).
	CoverDegree    int `json:"cover_degree,omitempty"`
	CoverMaxRadius int `json:"cover_max_radius,omitempty"`
	// Clusters maps cluster centers to cluster vertex sets; only populated
	// for cover queries with IncludeClusters.  The map is fresh per response
	// but its value slices are shared with the substrate cache and must not
	// be mutated (the facade copies them).
	Clusters map[int][]int `json:"clusters,omitempty"`

	// Simulator cost (distributed kinds only).
	Rounds          int   `json:"rounds,omitempty"`
	Messages        int64 `json:"messages,omitempty"`
	MaxMessageWords int   `json:"max_message_words,omitempty"`

	// CacheHit reports whether every substrate this query needed was served
	// from the cache (including coalescing onto a concurrent build).
	CacheHit bool `json:"cache_hit"`
	// ElapsedMS is the query's wall-clock execution time in milliseconds
	// (excluding time spent queued for a worker).
	ElapsedMS float64 `json:"elapsed_ms"`

	coverRef *cover.Cover
}

// CoverData returns the underlying cover structure of a cover query.  The
// structure is shared with the substrate cache and must not be mutated.
func (r *Response) CoverData() *cover.Cover { return r.coverRef }

// Do executes one query on the worker pool and blocks until it completes,
// the (request or engine default) timeout expires, or ctx is cancelled.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	if err := e.validate(req); err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	g, gen, err := e.resolve(req)
	if err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	ctx, cancel := e.withTimeout(ctx, req)
	defer cancel()

	// Resolve the (kind, solver) metric labels and count the query BEFORE it
	// runs: cache hits are recorded mid-run, so counting first keeps the
	// "hits ≤ queries" invariant observable in every Stats snapshot (which
	// loads hits before the query counters).
	kindLabel := string(req.Kind)
	solverLabel := ""
	switch req.Kind {
	case KindDominatingSet, KindDistributedDominatingSet:
		// Validation resolved the strategy, so this cannot fail here.
		if s, serr := solver.Get(req.Solver); serr == nil {
			solverLabel = s.Name()
		}
	}
	e.stats.queries.With(kindLabel, solverLabel).Inc()
	latency := e.stats.querySeconds.With(kindLabel, solverLabel)

	var resp *Response
	var qerr error
	err = e.exec.submit(ctx, func() {
		start := time.Now()
		// Second recovery layer (the first lives inside the substrate cache's
		// single-flight build): pipeline stages that run outside a cached
		// build — distributed kinds, response assembly — panic straight
		// through to the worker goroutine, which must never die with the
		// process.  The panic fails only this query.
		defer func() {
			if p := recover(); p != nil {
				e.stats.queryPanics.Inc()
				slog.Error("query panicked",
					"query_id", obs.QueryID(ctx), "kind", string(req.Kind),
					"panic", p, "stack", string(debug.Stack()))
				resp, qerr = nil, fmt.Errorf("%w: kind %s: %v", ErrQueryPanic, req.Kind, p)
			}
			elapsed := time.Since(start)
			latency.ObserveDuration(elapsed)
			if resp != nil {
				resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
			}
		}()
		resp, qerr = e.run(ctx, req, g, gen)
		if qerr == nil && ctx.Err() != nil {
			// The pipeline finished, but only after the caller's deadline
			// expired mid-run (substrate builds are not interruptible — the
			// result stays cached for the next query).  The deadline is the
			// contract: report it rather than hand back a late response.
			resp, qerr = nil, ctx.Err()
		}
	})
	if err == nil {
		err = qerr
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// Counts deadlines wherever they expired: at admission, queued, or
			// mid-run inside a substrate build (the stages observe ctx at every
			// boundary and coalesced waiters stop waiting on expiry).
			e.stats.timeouts.Inc()
		case errors.Is(err, ErrOverloaded):
			e.stats.shed.Inc()
		}
		e.stats.errors.Inc()
		return nil, err
	}
	return resp, nil
}

func (e *Engine) validate(req Request) error {
	if req.R < 1 {
		return fmt.Errorf("%w: radius must be ≥ 1, got %d", ErrInvalidRequest, req.R)
	}
	if req.G == nil && req.Graph == "" {
		return fmt.Errorf("%w: no graph given", ErrInvalidRequest)
	}
	switch req.Kind {
	case KindDominatingSet, KindConnectedDominatingSet, KindCover,
		KindDistributedDominatingSet, KindDistributedConnected:
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalidRequest, req.Kind)
	}
	switch req.Kind {
	case KindDominatingSet, KindDistributedDominatingSet:
		s, err := solver.Get(req.Solver)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		if req.Kind == KindDistributedDominatingSet {
			if _, ok := s.(solver.DistSolver); !ok {
				return fmt.Errorf("%w: solver %q has no distributed engine (distributed solvers: %s)",
					ErrInvalidRequest, s.Name(), strings.Join(solver.DistNames(), ", "))
			}
		}
	default:
		// The connected and cover pipelines are paper-specific.
		if req.Solver != "" && req.Solver != solver.DefaultName {
			return fmt.Errorf("%w: kind %q supports only the default %q pipeline, got solver %q",
				ErrInvalidRequest, req.Kind, solver.DefaultName, req.Solver)
		}
	}
	return nil
}

// run executes the query pipeline on the calling (worker) goroutine.  The
// individual stages are not interruptible, but a cancelled or timed-out
// context is observed at every stage boundary so an abandoned query releases
// its worker as early as possible.
func (e *Engine) run(ctx context.Context, req Request, g *graph.Graph, gen uint64) (*Response, error) {
	_, sp := obs.Start(ctx, "query:"+string(req.Kind))
	defer sp.End()
	e.stage("query:" + string(req.Kind))
	resp := &Response{Graph: req.Graph, Kind: req.Kind, R: req.R}
	switch req.Kind {
	case KindDominatingSet:
		s, err := solver.Get(req.Solver)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		res, hit, err := e.domsetFor(ctx, g, gen, req.R, s)
		if err != nil {
			return nil, err
		}
		resp.Solver = s.Name()
		// The cached result is shared across queries; hand out a copy so a
		// caller mutating its response cannot poison the cache.
		resp.Set = append([]int(nil), res.Set...)
		resp.Size = len(res.Set)
		resp.LowerBound = res.LowerBound
		resp.Wcol = res.Wcol
		resp.CacheHit = hit

	case KindConnectedDominatingSet:
		if !g.IsConnected() {
			return nil, ErrNotConnected
		}
		o, hitO, err := e.orderFor(ctx, g, gen, 2*req.R+1)
		if err != nil {
			return nil, err
		}
		sets, hitW, err := e.wreachFor(ctx, g, gen, 2*req.R+1, 2*req.R+1)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		D := domset.AlgorithmOne(g, o, req.R)
		resp.DomSet = D
		resp.Set = connect.Closure(g, o, D, req.R)
		resp.Size = len(resp.Set)
		resp.LowerBound = domset.ScatteredLowerBound(g, req.R, D)
		resp.Wcol = order.WColOfSets(sets)
		resp.CacheHit = hitO && hitW

	case KindCover:
		cs, hit, err := e.coverFor(ctx, g, gen, req.R)
		if err != nil {
			return nil, err
		}
		resp.Size = cs.stats.NumClusters
		resp.CoverDegree = cs.stats.Degree
		resp.CoverMaxRadius = cs.stats.MaxRadius
		resp.CacheHit = hit
		resp.coverRef = cs.cover
		if req.IncludeClusters {
			resp.Clusters = cs.cover.ClusterMap()
		}

	case KindDistributedDominatingSet:
		s, err := solver.Get(req.Solver)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		ds, ok := s.(solver.DistSolver)
		if !ok {
			return nil, fmt.Errorf("%w: solver %q has no distributed engine", ErrInvalidRequest, s.Name())
		}
		dopts := req.distOptions()
		probe := &dist.Probe{}
		dopts.Sim.Probe = probe
		res, err := ds.SolveDist(g, req.R, dopts)
		e.recordDistRun(ctx, req, s.Name(), probe, err)
		if err != nil {
			return nil, err
		}
		resp.Solver = s.Name()
		resp.Set = res.Set
		resp.DomSet = res.Set
		resp.Size = len(res.Set)
		resp.Rounds = res.Rounds
		resp.Messages = res.Messages
		resp.MaxMessageWords = res.MaxMessageWords

	case KindDistributedConnected:
		model := CongestBC
		if req.ModelSet {
			model = req.Model
		}
		sopts := req.simOptions()
		probe := &dist.Probe{}
		sopts.Probe = probe
		res, err := distalgo.RunConnectedDomSet(g, req.R, model, sopts)
		e.recordDistRun(ctx, req, "", probe, err)
		if err != nil {
			return nil, err
		}
		resp.Set = res.Set
		resp.DomSet = res.DomSet
		resp.Size = len(res.Set)
		resp.Rounds = res.Stats.Rounds
		resp.Messages = res.Stats.Messages
		resp.MaxMessageWords = res.Stats.MaxMessageWords
	}
	return resp, nil
}

// coverSubstrate is the cached cover together with its measured statistics
// (statistics are computed once at build time; they are part of the
// substrate so that repeated cover queries skip the eccentricity sweeps).
type coverSubstrate struct {
	cover *cover.Cover
	stats cover.Stats
}

func (e *Engine) coverFor(ctx context.Context, g *graph.Graph, gen uint64, r int) (*coverSubstrate, bool, error) {
	v, hit, err := e.fetch(ctx, substrateKey{gen: gen, kind: kindCover, a: r}, func(ctx context.Context) (any, error) {
		// The cover inverts the cached weak-reachability sets (shared with
		// wcol measurements) instead of sweeping the graph again.
		sets2r, _, err := e.wreachFor(ctx, g, gen, r, 2*r)
		if err != nil {
			return nil, err
		}
		setsR, _, err := e.wreachFor(ctx, g, gen, r, r)
		if err != nil {
			return nil, err
		}
		c := cover.BuildFromSets(g, r, setsR, sets2r, 0)
		return &coverSubstrate{cover: c, stats: c.ComputeStats(g)}, nil
	})
	cs, _ := v.(*coverSubstrate)
	return cs, hit, err
}

// BatchResult pairs one batch entry's response with its error.
type BatchResult struct {
	Response *Response
	Err      error
}

// Batch fans the requests across the worker pool and waits for all of them.
// Results keep the request order; each entry fails or succeeds on its own.
// Identical concurrent entries share substrate builds via single-flight.
func (e *Engine) Batch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			resp, err := e.Do(ctx, req)
			out[i] = BatchResult{Response: resp, Err: err}
		}(i, req)
	}
	wg.Wait()
	return out
}
