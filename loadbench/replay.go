package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"bedom/internal/connect"
	"bedom/internal/cover"
	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/engine"
	"bedom/internal/graph"
	"bedom/internal/obs"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// The traced run replays a workload's operations in this process, calling
// each module's public entry points directly with a span around every call.
// It mirrors what domserved does per request — including the engine's
// substrate cache, so a warm query replays as a cache lookup and an encode —
// but none of the timing reported as end-to-end comes from here.

// span is one timed call.  Parent is the index of the enclosing span (-1 for
// an operation's root span); Op is the operation it belongs to (-1 during
// set-up).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Op         int
}

// tracer records spans in memory; with on == false it records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: t.op})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) do(name string, f func()) {
	i := t.begin(name)
	f()
	t.end(i)
}

// rkey mirrors the engine's substrate-cache key.
type rkey struct {
	g, ver int
	kind   string
	a, b   int
	solver string
}

type replayGraph struct {
	base *graph.Graph
	dyn  *graph.Dynamic
	ver  int
}

// replayer is the in-process stand-in for one daemon.
type replayer struct {
	tr     *tracer
	graphs []*replayGraph
	cache  map[rkey]any
	sizes  map[answerKey]int

	wcol2r        []int
	wreachEntries int64
	distRounds    int64
	distMessages  int64
	distWords     int64
	roundNS       int64
}

// clone returns a replayer in the same post-set-up state with fresh
// counters, so the untraced and traced replays start alike.
func (rp *replayer) clone(tr *tracer) *replayer {
	c := &replayer{tr: tr, cache: make(map[rkey]any, len(rp.cache)), sizes: map[answerKey]int{}}
	for k, v := range rp.cache {
		c.cache[k] = v
	}
	for _, g := range rp.graphs {
		c.graphs = append(c.graphs, &replayGraph{base: g.base, dyn: graph.NewDynamic(g.base, 0)})
	}
	return c
}

// substrate serves solver.Substrate from the replay cache, timing every
// build as an order span.
type substrate struct {
	rp *replayer
	gi int
	g  *graph.Graph
}

func (s *substrate) key(kind string, a, b int) rkey {
	return rkey{g: s.gi, ver: s.rp.graphs[s.gi].ver, kind: kind, a: a, b: b}
}

func (s *substrate) Order(_ context.Context, r int) (*order.Order, error) {
	k := s.key("order", r, 0)
	if v, ok := s.rp.cache[k]; ok {
		return v.(*order.Order), nil
	}
	var o *order.Order
	s.rp.tr.do("order.construct", func() {
		opts := order.DefaultOptions(r)
		opts.Workers = 1
		o = order.Construct(s.g, opts).Order
	})
	s.rp.cache[k] = o
	return o, nil
}

func (s *substrate) WReach(ctx context.Context, orderR, r int) ([][]int, error) {
	k := s.key("wreach", orderR, r)
	if v, ok := s.rp.cache[k]; ok {
		return v.([][]int), nil
	}
	o, err := s.Order(ctx, orderR)
	if err != nil {
		return nil, err
	}
	var sets [][]int
	s.rp.tr.do("order.wreach", func() { sets = order.WReachSetsWorkers(s.g, o, r, 1) })
	s.rp.cache[k] = sets
	for _, set := range sets {
		s.rp.wreachEntries += int64(len(set))
	}
	if r == 2*orderR {
		s.rp.wcol2r = append(s.rp.wcol2r, order.WColOfSets(sets))
	}
	return sets, nil
}

func (s *substrate) Wcol(ctx context.Context, orderR, r int) (int, error) {
	sets, err := s.WReach(ctx, orderR, r)
	if err != nil {
		return 0, err
	}
	return order.WColOfSets(sets), nil
}

// ingest parses a graph's edge list the way POST /graphs does.
func (rp *replayer) ingest(bg *benchGraph) error {
	var g *graph.Graph
	var err error
	rp.tr.do("graph.ingest", func() { g, err = graph.ReadEdgeListLimit(bytes.NewReader(bg.edgeListBody()), 32<<20) })
	if err != nil {
		return fmt.Errorf("ingest %s: %w", bg.Name, err)
	}
	rp.graphs = append(rp.graphs, &replayGraph{base: g, dyn: graph.NewDynamic(g, 0)})
	return nil
}

func (rp *replayer) mutate(gi int, d *delta) error {
	rg := rp.graphs[gi]
	var err error
	rp.tr.do("graph.apply", func() { _, err = rg.dyn.Apply(graph.Delta{Add: d.Add, Remove: d.Remove}) })
	if err != nil {
		return err
	}
	for k := range rp.cache { // the engine purges the graph's generation
		if k.g == gi {
			delete(rp.cache, k)
		}
	}
	rg.ver++
	return nil
}

// query runs one query the way the engine does and encodes the response.
func (rp *replayer) query(gi int, q *query) error {
	rg := rp.graphs[gi]
	var g *graph.Graph
	rp.tr.do("graph.snapshot", func() { g = rg.dyn.Snapshot() })
	sub := &substrate{rp: rp, gi: gi, g: g}
	ctx := context.Background()
	resp := &engine.Response{Graph: q.Graph, Kind: engine.Kind(q.Kind), R: q.R}
	r := q.R
	switch q.Kind {
	case "domset":
		s, err := solver.Get(q.Solver)
		if err != nil {
			return err
		}
		k := rkey{g: gi, ver: rg.ver, kind: "domset", a: r, solver: s.Name()}
		v, ok := rp.cache[k]
		if !ok {
			var res solver.Result
			rp.tr.do("solver.solve."+s.Name(), func() { res, err = s.Solve(ctx, g, r, sub) })
			if err != nil {
				return err
			}
			v = res
			rp.cache[k] = v
		}
		res := v.(solver.Result)
		resp.Solver, resp.Set, resp.Size = s.Name(), append([]int(nil), res.Set...), len(res.Set)
		resp.LowerBound, resp.Wcol = res.LowerBound, res.Wcol

	case "cds":
		o, _ := sub.Order(ctx, 2*r+1)
		wcol, _ := sub.Wcol(ctx, 2*r+1, 2*r+1)
		var D []int
		rp.tr.do("domset.algorithm_one", func() { D = domset.AlgorithmOne(g, o, r) })
		rp.tr.do("connect.closure", func() { resp.Set = connect.Closure(g, o, D, r) })
		rp.tr.do("domset.lower_bound", func() { resp.LowerBound = domset.ScatteredLowerBound(g, r, D) })
		resp.DomSet, resp.Size, resp.Wcol = D, len(resp.Set), wcol

	case "cover":
		k := rkey{g: gi, ver: rg.ver, kind: "cover", a: r}
		v, ok := rp.cache[k]
		if !ok {
			sets2r, _ := sub.WReach(ctx, r, 2*r)
			setsR, _ := sub.WReach(ctx, r, r)
			var c *cover.Cover
			var st cover.Stats
			rp.tr.do("cover.build", func() { c = cover.BuildFromSets(g, r, setsR, sets2r, 1) })
			rp.tr.do("cover.stats", func() { st = c.ComputeStatsWorkers(g, 1) })
			v = st
			rp.cache[k] = v
		}
		st := v.(cover.Stats)
		resp.Size, resp.CoverDegree, resp.CoverMaxRadius = st.NumClusters, st.Degree, st.MaxRadius

	case "dist-domset", "dist-cds":
		probe := &dist.Probe{}
		opts := dist.Options{Workers: 1, Probe: probe}
		var err error
		switch {
		case q.Kind == "dist-cds":
			var res *distalgo.ConnectedResult
			rp.tr.do("distalgo.run.cds", func() { res, err = distalgo.RunConnectedDomSet(g, r, dist.CongestBC, opts) })
			if err == nil {
				resp.Set, resp.DomSet = res.Set, res.DomSet
			}
		case q.Solver == "kubsv":
			var res *distalgo.KSVResult
			rp.tr.do("distalgo.run.kubsv", func() { res, err = distalgo.RunKSV(g, r, dist.Local, opts) })
			if err == nil {
				resp.Set = res.Set
			}
		default:
			var res *distalgo.DomSetResult
			rp.tr.do("distalgo.run.paper", func() { res, err = distalgo.RunDomSet(g, r, dist.CongestBC, opts) })
			if err == nil {
				resp.Set = res.Set
			}
		}
		if err != nil {
			return err
		}
		resp.Solver, resp.Size = q.Solver, len(resp.Set)
		for _, p := range probe.Profiles() {
			resp.Rounds += p.Stats.Rounds
			resp.Messages += p.Stats.Messages
			rp.distRounds += int64(p.Stats.Rounds)
			rp.distMessages += p.Stats.Messages
			rp.distWords += p.Stats.Words
			for _, rd := range p.Rounds {
				rp.roundNS += rd.DurationNS
			}
		}

	default:
		return fmt.Errorf("replay: unknown kind %q", q.Kind)
	}
	rp.sizes[answerKey{gi, rg.ver, q.Kind, q.R, q.Solver}] = resp.Size
	if q.OmitSets {
		resp.Set, resp.DomSet = nil, nil
	}
	var err error
	rp.tr.do("domserved.encode", func() { _, err = json.Marshal(resp) })
	return err
}

// runOp replays one scheduled operation under a root span.
func (rp *replayer) runOp(o *op) error {
	rp.tr.op = o.ID
	i := rp.tr.begin("op." + o.Kind)
	defer rp.tr.end(i)
	switch o.Kind {
	case opQuery:
		return rp.query(o.Graph, o.Query)
	case opMutate:
		return rp.mutate(o.Graph, o.Delta)
	}
	return nil // checkpoints touch only the store, which the replay leaves out
}

// layerStat aggregates one span name.
type layerStat struct {
	Calls            int
	TotalMS, SelfMS  float64
	SetupMS, SetupCl float64
}

// traceRun performs the traced run: set-up, an untraced replay and a traced
// replay of the same operations from the same state.  It writes the Chrome
// trace-event file and the per-layer table, and returns the traced per-layer
// metrics.
func traceRun(cfg config, w workload, graphs []*benchGraph, s *schedule, daemonAnswers []*answer, log io.Writer) (map[string]float64, error) {
	setupTr := &tracer{on: true, t0: time.Now(), op: -1}
	base := &replayer{tr: setupTr, cache: map[rkey]any{}, sizes: map[answerKey]int{}}
	for _, bg := range graphs {
		if err := base.ingest(bg); err != nil {
			return nil, err
		}
	}
	for _, wq := range warmQueries(s) {
		if err := base.query(wq.graph, &wq.q); err != nil {
			return nil, err
		}
	}

	replay := func(tr *tracer) (*replayer, time.Duration, error) {
		rp := base.clone(tr)
		var busy time.Duration
		for i := range s.Ops {
			t := time.Now()
			if err := rp.runOp(&s.Ops[i]); err != nil {
				return nil, 0, fmt.Errorf("replay op %d: %w", i, err)
			}
			busy += time.Since(t)
		}
		return rp, busy, nil
	}
	// Untraced, traced, untraced: the overhead compares the traced replay
	// with the mean of the two untraced ones, so warm-up lands on neither side.
	_, plain1, err := replay(&tracer{})
	if err != nil {
		return nil, err
	}
	opsTr := &tracer{on: true, t0: time.Now()}
	rp, traced, err := replay(opsTr)
	if err != nil {
		return nil, err
	}
	_, plain2, err := replay(&tracer{})
	if err != nil {
		return nil, err
	}
	plain := (plain1 + plain2) / 2

	// Self time per span name: duration minus the direct children's.
	stats := map[string]*layerStat{}
	agg := func(spans []span, setup bool) (unattributed float64) {
		child := make([]time.Duration, len(spans))
		for _, sp := range spans {
			if sp.Parent >= 0 {
				child[sp.Parent] += sp.End - sp.Start
			}
		}
		for i, sp := range spans {
			self := float64(sp.End-sp.Start-child[i]) / float64(time.Millisecond)
			if sp.Parent < 0 && strings.HasPrefix(sp.Name, "op.") {
				unattributed += self
				continue
			}
			st := stats[sp.Name]
			if st == nil {
				st = &layerStat{}
				stats[sp.Name] = st
			}
			if setup {
				st.SetupMS += self
				st.SetupCl++
			} else {
				st.Calls++
				st.SelfMS += self
				st.TotalMS += float64(sp.End-sp.Start) / float64(time.Millisecond)
			}
		}
		return unattributed
	}
	agg(setupTr.spans, true)
	unattributed := agg(opsTr.spans, false)

	m := map[string]float64{}
	self := func(name string) float64 {
		if st := stats[name]; st != nil {
			return st.SelfMS
		}
		return 0
	}
	for _, name := range []string{"graph.apply", "graph.snapshot", "order.construct", "order.wreach",
		"cover.build", "cover.stats", "domset.algorithm_one", "domset.lower_bound", "connect.closure", "domserved.encode"} {
		m[name+"_ms"] = self(name)
	}
	if st := stats["graph.ingest"]; st != nil {
		m["graph.ingest_ms"] = st.SetupMS
	} else {
		m["graph.ingest_ms"] = 0
	}
	for _, sv := range []string{"paper", "dvorak", "greedy", "order-greedy", "kubsv"} {
		m["solver.solve_ms."+sv] = self("solver.solve." + sv)
	}
	for _, d := range []string{"paper", "kubsv", "cds"} {
		m["distalgo.run_ms."+d] = self("distalgo.run." + d)
	}
	m["order.wcol_2r"] = 0
	if builds := append(base.wcol2r, rp.wcol2r...); len(builds) > 0 {
		sum := 0
		for _, w := range builds {
			sum += w
		}
		m["order.wcol_2r"] = float64(sum) / float64(len(builds))
	}
	m["order.wreach_entries"] = float64(rp.wreachEntries)
	m["dist.rounds"] = float64(rp.distRounds)
	m["dist.messages"] = float64(rp.distMessages)
	m["dist.words"] = float64(rp.distWords)
	m["dist.round_ms"] = 0
	if rp.distRounds > 0 {
		m["dist.round_ms"] = float64(rp.roundNS) / float64(rp.distRounds) / 1e6
	}
	m["unattributed_ms"] = unattributed
	m["trace_overhead_pct"] = 100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds()

	// Fidelity: the replay must reach the daemon's answers, or the layer
	// metrics would describe another pipeline than the daemon's.
	for i, a := range daemonAnswers {
		if a == nil {
			continue
		}
		if k := keyOf(&s.Ops[i]); rp.sizes[k] != a.Size {
			return nil, fmt.Errorf("traced replay drifted from the daemon: %s on g%d v%d r=%d %s has size %d, the daemon answered %d",
				k.Kind, k.Graph, k.Version, k.R, k.Solver, rp.sizes[k], a.Size)
		}
	}

	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.Name, cfg.seed))
	if err := writeTrace(stem+".trace.json", setupTr, opsTr); err != nil {
		return nil, err
	}
	var table bytes.Buffer
	tw := tabwriter.NewWriter(&table, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer span\tcalls\tself ms\ttotal ms\tself %%\tset-up calls\tset-up self ms\t\n")
	attributed := 0.0
	for _, st := range stats {
		attributed += st.SelfMS
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].SelfMS > stats[names[j]].SelfMS })
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.1f\t%.0f\t%.3f\t\n", n, st.Calls, st.SelfMS, st.TotalMS,
			100*st.SelfMS/max(attributed, 1e-9), st.SetupCl, st.SetupMS)
	}
	fmt.Fprintf(tw, "unattributed (op root self)\t%d\t%.3f\t\t\t\t\t\n", len(s.Ops), unattributed)
	tw.Flush()
	fmt.Fprintf(&table, "replay busy: untraced %.3f ms, traced %.3f ms, tracing overhead %.2f%%\n",
		plain.Seconds()*1e3, traced.Seconds()*1e3, m["trace_overhead_pct"])
	if err := os.WriteFile(stem+".layers.txt", table.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "loadbench: traced replay of %s (trace: %s.trace.json)\n%s", w.Name, stem, table.String())
	return m, nil
}

// writeTrace writes the set-up and replay spans as one Chrome trace-event
// document: set-up on thread 1, operations on thread 2.
func writeTrace(path string, setup, ops *tracer) error {
	var events []obs.TraceEvent
	add := func(tr *tracer, tid int, offset time.Duration) {
		for _, sp := range tr.spans {
			args := map[string]any{"op": sp.Op}
			if sp.Parent >= 0 {
				args["parent"] = tr.spans[sp.Parent].Name
			}
			cat, _, _ := strings.Cut(sp.Name, ".")
			events = append(events, obs.TraceEvent{
				Name: sp.Name, Cat: cat, Ph: "X",
				TS:  float64(offset+sp.Start) / 1e3,
				Dur: float64(sp.End-sp.Start) / 1e3,
				PID: 1, TID: tid, Args: args,
			})
		}
	}
	add(setup, 1, 0)
	add(ops, 2, ops.t0.Sub(setup.t0))
	events = append(events,
		obs.TraceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "set-up"}},
		obs.TraceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: 2, Args: map[string]any{"name": "operations"}})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
