package dist

import (
	"fmt"
	"slices"
	"time"

	"bedom/internal/graph"
)

// Runner executes one protocol on one graph.  Create it with NewRunner and
// execute with Run; a Runner is single-use.
type Runner struct {
	g         *graph.Graph
	model     Model
	opts      Options
	bandwidth int
	maxRounds int

	// adj[off[v]:off[v+1]] is the sorted adjacency list of v as []int, every
	// row carved from one arena (the graph stores int32; converting once up
	// front keeps the hot path free of per-access conversions and gives
	// Context.Neighbors a stable slice).
	adj []int
	off []int

	nodes   []Node
	halters []Halter // halters[v] is nil when nodes[v] has no Done method
	ctxs    []Context
	// workers holds one accumulator and one inbox buffer per worker
	// goroutine; see pool.go.
	workers []worker

	// Telemetry state, only allocated when opts.Probe is set (the disabled
	// path must cost nothing — see probe.go for the contract).
	rounds    []RoundProfile
	sentWords []int64
	recvWords []int64

	round int
	used  bool
}

// NewRunner prepares a simulator run of the given model on g.  The graph is
// only read; it may be shared between concurrent runners.
func NewRunner(g *graph.Graph, model Model, opts Options) *Runner {
	n := g.N()
	r := &Runner{
		g:         g,
		model:     model,
		opts:      opts,
		bandwidth: opts.Bandwidth,
		maxRounds: opts.MaxRounds,
	}
	if r.maxRounds <= 0 {
		// A runaway guard, not a complexity bound: the library's protocols
		// finish in O(r·log n) rounds, and even the stall-breaker of the
		// refined-order protocol stays linear in n with small constants.
		r.maxRounds = 100*n + 1000
	}
	r.off = make([]int, n+1)
	for v := 0; v < n; v++ {
		r.off[v+1] = r.off[v] + g.Degree(v)
	}
	r.adj = make([]int, r.off[n])
	for v := 0; v < n; v++ {
		row := r.adj[r.off[v]:r.off[v+1]]
		for i, u := range g.Neighbors(v) {
			row[i] = int(u)
		}
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
	}
	return r
}

// neighbors returns the sorted adjacency row of v.  Its capacity ends at the
// row, so an append by a careless caller copies instead of overwriting the
// next vertex's row.
func (r *Runner) neighbors(v int) []int { return r.adj[r.off[v]:r.off[v+1]:r.off[v+1]] }

func (r *Runner) degree(v int) int { return r.off[v+1] - r.off[v] }

// Run instantiates a node per vertex via factory (called sequentially in
// vertex order, so factories may write to shared result slices), runs Init
// and then synchronous rounds until termination, and returns the accumulated
// statistics.  On a model violation or round overrun it returns the
// statistics gathered so far together with the error.
//
// Termination: the run ends after the first round in which no node sent a
// message and every node implementing Halter is done.
//
// Every run (successful or failed) is accounted in the process-wide
// simulator metrics under its model and Options.Phase (see metrics.go).
func (r *Runner) Run(factory func(v int) Node) (Stats, error) {
	if r.used {
		return Stats{}, ErrRunnerReused
	}
	start := time.Now()
	st, err := r.run(factory)
	elapsed := time.Since(start)
	recordRun(r.model, r.opts.Phase, st, elapsed, err)
	if p := r.opts.Probe; p != nil {
		rp := RunProfile{
			Model:      r.model.String(),
			Phase:      r.opts.Phase,
			N:          r.g.N(),
			Stats:      st,
			DurationNS: elapsed.Nanoseconds(),
			Rounds:     r.rounds,
			Congestion: congestionTable(r.sentWords, r.recvWords, p.topK()),
		}
		if err != nil {
			rp.Err = err.Error()
		}
		p.add(rp)
	}
	return st, err
}

func (r *Runner) run(factory func(v int) Node) (Stats, error) {
	r.used = true
	if !r.model.valid() {
		return Stats{}, fmt.Errorf("%w: %d", ErrBadModel, int(r.model))
	}
	n := r.g.N()
	if n == 0 {
		return Stats{}, nil
	}

	r.nodes = make([]Node, n)
	r.halters = make([]Halter, n)
	for v := 0; v < n; v++ {
		node := factory(v)
		if node == nil {
			return Stats{}, fmt.Errorf("dist: factory returned nil node for vertex %d", v)
		}
		r.nodes[v] = node
		if h, ok := node.(Halter); ok {
			r.halters[v] = h
		}
	}
	r.ctxs = make([]Context, n)
	for v := 0; v < n; v++ {
		c := &r.ctxs[v]
		c.r = r
		c.v = v
		for i := range c.boxes {
			c.boxes[i].bcasts = c.boxes[i].first[:0]
		}
		c.out = &c.boxes[0]
	}
	r.workers = make([]worker, graph.ResolveWorkers(r.opts.Workers, n))
	probe := r.opts.Probe
	if probe != nil {
		r.sentWords = make([]int64, n)
		r.recvWords = make([]int64, n)
	}

	// Round 0: Init every node (messages land in outbox slot 0).
	r.round = 0
	init := r.forEachNode(func(w *worker, v int) {
		c := &r.ctxs[v]
		r.nodes[v].Init(c)
		c.finishStep()
		r.accountSends(v)
		if c.err != nil {
			w.acc.errSeen = true
		}
	})
	if init.errSeen {
		return Stats{}, r.firstError()
	}

	var stats Stats
	var roundStart time.Time
	for t := 1; ; t++ {
		if t > r.maxRounds {
			return stats, fmt.Errorf("%w: no quiescence after %d rounds in %v (MaxRounds)",
				ErrMaxRounds, r.maxRounds, r.model)
		}
		r.round = t
		if probe != nil {
			roundStart = time.Now()
		}
		prevSlot, curSlot := (t-1)%2, t%2
		total := r.forEachNode(func(w *worker, v int) {
			r.step(w, v, prevSlot, curSlot)
		})
		stats.Rounds = t
		stats.Messages += total.messages
		stats.Words += total.words
		if total.maxWords > stats.MaxMessageWords {
			stats.MaxMessageWords = total.maxWords
		}
		if probe != nil {
			// Recorded before the error check: an aborting round's
			// deliveries are in stats, so they belong in the profile too.
			r.rounds = append(r.rounds, RoundProfile{
				Round:           t,
				Messages:        total.messages,
				Words:           total.words,
				MaxMessageWords: total.maxWords,
				ActiveNodes:     total.active,
				HaltedNodes:     total.halted,
				DurationNS:      time.Since(roundStart).Nanoseconds(),
			})
		}
		if total.errSeen {
			return stats, r.firstError()
		}
		if !total.anySent && total.allDone {
			return stats, nil
		}
	}
}

// step executes one round for vertex v: gather the inbox from the neighbors'
// previous-round outboxes into the worker's inbox buffer, reset the own
// current outbox, and call Round.  Each vertex only reads prev-slot outboxes
// and writes its own cur-slot outbox, so steps of distinct vertices never
// conflict; the inbox buffer is the worker's own and is refilled for the
// next vertex once Round returns (the Node contract forbids retaining it).
func (r *Runner) step(w *worker, v int, prevSlot, curSlot int) {
	acc := &w.acc
	wordsBefore := acc.words
	inbox := w.inbox[:0]
	for _, u := range r.neighbors(v) {
		ob := &r.ctxs[u].boxes[prevSlot]
		for _, bm := range ob.bcasts {
			inbox = append(inbox, Inbound{From: u, Msg: bm.msg})
			acc.deliver(bm.words)
		}
		for _, e := range ob.directsTo(v) {
			inbox = append(inbox, Inbound{From: u, Msg: e.msg})
			acc.deliver(e.words)
		}
	}
	w.inbox = inbox
	if r.recvWords != nil {
		// Each vertex is stepped by exactly one worker per round, so its
		// slot is race-free; diffing the accumulator keeps the disabled
		// path free of per-delivery probe work.
		r.recvWords[v] += acc.words - wordsBefore
	}

	c := &r.ctxs[v]
	c.out = &c.boxes[curSlot]
	c.out.reset()
	r.nodes[v].Round(c, inbox)
	c.finishStep()
	r.accountSends(v)

	if !c.out.empty() {
		acc.anySent = true
		acc.active++
	}
	if h := r.halters[v]; h == nil || h.Done() {
		acc.halted++
	} else {
		acc.allDone = false
	}
	if c.err != nil {
		acc.errSeen = true
	}
}

// accountSends attributes the words a vertex staged this step to its
// congestion-table slot, as delivered words: a broadcast of w words by a
// vertex of degree d will cross d edges.  No-op when the probe is disabled.
// On a run that aborts before the next round these sends are attributed but
// never delivered; a successful run's last round stages nothing, so there
// send and receive totals agree.
func (r *Runner) accountSends(v int) {
	if r.sentWords == nil {
		return
	}
	ob := r.ctxs[v].out
	var w int64
	if d := int64(r.degree(v)); d > 0 {
		for _, bm := range ob.bcasts {
			w += int64(bm.words) * d
		}
	}
	for _, e := range ob.directs {
		w += int64(e.words)
	}
	r.sentWords[v] += w
}

// firstError returns the violation of the smallest vertex id, keeping error
// reporting deterministic regardless of worker scheduling.
func (r *Runner) firstError() error {
	for v := range r.ctxs {
		if err := r.ctxs[v].err; err != nil {
			return err
		}
	}
	return nil
}
