// Package solver defines the pluggable domination strategies behind the
// engine and the facade.  A Solver computes a distance-r dominating set
// sequentially, drawing the expensive shared substrates (weak-reachability
// orders and sets) from a Substrate so that strategies on the same graph
// reuse one cached order; a DistSolver additionally runs a simulator-backed
// distributed protocol.  Strategies self-register under a stable name — the
// engine keys its per-graph result cache by that name, so different
// strategies never cross-contaminate.
//
// Registered strategies:
//
//	paper         the SPAA 2018 pipeline (Theorem 5 / Theorem 9) — default
//	kubsv         constant-round election + cleanup (Kublenz–Siebertz–Vigny)
//	dvorak        order-driven linear-time approximation (Dvořák-style)
//	greedy        classical ln(n) greedy baseline
//	order-greedy  first-uncovered-in-order baseline
package solver

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// DefaultName is the strategy used when no solver name is given.
const DefaultName = "paper"

// Substrate supplies the shared, cacheable inputs a Solver may draw on.  The
// engine backs it with its LRU substrate cache; Local computes on demand.
// Implementations memoize, so repeated fetches are cheap; they need not be
// safe for concurrent use unless documented.
type Substrate interface {
	// Order returns the weak-reachability order for radius r.
	Order(ctx context.Context, r int) (*order.Order, error)
	// WReach returns the weak s-reachability sets of the radius-orderR order.
	WReach(ctx context.Context, orderR, s int) ([][]int, error)
}

// Result is the outcome of a sequential solve.
type Result struct {
	// Set is the computed distance-r dominating set, sorted.
	Set []int
	// LowerBound is a certified lower bound on the optimum size.
	LowerBound int
	// Wcol is the measured weak colouring number backing the strategy's
	// approximation guarantee (0 for strategies with no order-based bound).
	Wcol int
}

// Solver is one sequential domination strategy.
type Solver interface {
	// Name is the stable registry key ("paper", "kubsv", ...).
	Name() string
	// Describe is a one-line human-readable summary.
	Describe() string
	// Solve computes a distance-r dominating set of g.  The returned Result
	// may be cached by the caller and must not be mutated afterwards.
	Solve(ctx context.Context, g *graph.Graph, r int, sub Substrate) (Result, error)
}

// DistOptions tunes a DistSolver run.
type DistOptions struct {
	// Model is the communication model, honoured only when ModelSet is true;
	// otherwise the solver's preferred model is used (CONGEST_BC for the
	// paper pipeline, LOCAL for kubsv).
	Model    dist.Model
	ModelSet bool
	// Sim tunes the simulator (workers, round budget).
	Sim dist.Options
	// RefinedOrder selects the refined distributed order pipeline on solvers
	// that support it (paper); others ignore it.
	RefinedOrder bool
}

// DistResult is the outcome of a distributed solve.
type DistResult struct {
	// Set is the computed distance-r dominating set, sorted.
	Set []int
	// Rounds, Messages and MaxMessageWords are the simulator cost.
	Rounds          int
	Messages        int64
	MaxMessageWords int
}

// DistSolver is a Solver that also has a simulator-backed distributed
// protocol.
type DistSolver interface {
	Solver
	SolveDist(g *graph.Graph, r int, opts DistOptions) (DistResult, error)
}

// --- Registry -------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = make(map[string]Solver)
)

// Register adds a strategy under its Name.  It panics on an empty or
// duplicate name (registration is an init-time, programmer-error path).
func Register(s Solver) {
	name := s.Name()
	if name == "" {
		panic("solver: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", name))
	}
	registry[name] = s
}

// Get resolves a solver name ("" selects DefaultName).  An unknown name
// fails with an error listing the registered strategies (surfaced verbatim
// by domserved's 400 responses).
func Get(name string) (Solver, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	s, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown solver %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DistNames lists the registered strategies that implement DistSolver,
// sorted.
func DistNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for name, s := range registry {
		if _, ok := s.(DistSolver); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// --- Local substrate ------------------------------------------------------

// Local is a self-contained Substrate: it computes orders and
// weak-reachability sets on demand and memoizes them for its own lifetime.
// It backs the experiment harness and tests; the engine substitutes its
// LRU-cached implementation.  Not safe for concurrent use.
type Local struct {
	g       *graph.Graph
	workers int
	orders  map[int]*order.Order
	wreach  map[[2]int][][]int
}

// NewLocal returns a Local substrate over g.  workers bounds the goroutines
// per construction (0 = GOMAXPROCS); outputs are identical for every value.
func NewLocal(g *graph.Graph, workers int) *Local {
	return &Local{
		g:       g,
		workers: workers,
		orders:  make(map[int]*order.Order),
		wreach:  make(map[[2]int][][]int),
	}
}

// Order implements Substrate.
func (l *Local) Order(_ context.Context, r int) (*order.Order, error) {
	if o, ok := l.orders[r]; ok {
		return o, nil
	}
	opts := order.DefaultOptions(r)
	opts.Workers = l.workers
	o := order.Construct(l.g, opts).Order
	l.orders[r] = o
	return o, nil
}

// WReach implements Substrate.
func (l *Local) WReach(ctx context.Context, orderR, s int) ([][]int, error) {
	key := [2]int{orderR, s}
	if sets, ok := l.wreach[key]; ok {
		return sets, nil
	}
	o, err := l.Order(ctx, orderR)
	if err != nil {
		return nil, err
	}
	sets := order.WReachSetsWorkers(l.g, o, s, l.workers)
	l.wreach[key] = sets
	return sets, nil
}
