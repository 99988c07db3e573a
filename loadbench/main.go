// Command loadbench is the repository's load benchmark.  It generates every
// input from a seed, starts the cmd/domserved binary built from the same
// tree, drives it open-loop over loopback HTTP, checks every answer against
// its own copy of the topology, and prints one JSON result line.
//
//	bash loadbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of the untraced
// run.  With --trace 1 it holds the per-layer metrics: /metrics deltas
// around the untraced run, plus an in-process replay of the same operations
// that times each module's entry points (see replay.go and README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	domserved string
	work      string
	goroot    string
	scale     float64 // graph-size multiplier; below 1 only in smoke tests
	runDir    string
}

// setupReps is how many set-ups a --trace 0 run makes; setup_s is the
// median over them, and the last one's daemon serves the window.
const setupReps = 5

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of a --trace 0 result (BENCHMARK.json end_to_end).
// Query latencies are reported but not among them: on a shared virtual
// machine they move with the CPU time other guests take (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
	{"dom_size_ratio", "ratio"},
}

// perLayer are the metrics of a --trace 1 result (BENCHMARK.json per_layer).
var perLayer = []metricDef{
	{"domserved.http_ms", "ms"},
	{"domserved.overhead_ms", "ms"},
	{"domserved.response_bytes", "bytes"},
	{"domserved.encode_ms", "ms"},
	{"engine.exec_ms", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_misses", "count"},
	{"engine.coalesced", "count"},
	{"engine.rebuild_waits", "count"},
	{"engine.shed", "count"},
	{"engine.mutate_ms", "ms"},
	{"store.wal_append_ms", "ms"},
	{"store.snapshot_write_ms", "ms"},
	{"graph.ingest_ms", "ms"},
	{"graph.apply_ms", "ms"},
	{"graph.snapshot_ms", "ms"},
	{"order.construct_ms", "ms"},
	{"order.wreach_ms", "ms"},
	{"order.wcol_2r", "count"},
	{"order.wreach_entries", "count"},
	{"cover.build_ms", "ms"},
	{"cover.stats_ms", "ms"},
	{"solver.solve_ms.paper", "ms"},
	{"solver.solve_ms.dvorak", "ms"},
	{"solver.solve_ms.greedy", "ms"},
	{"solver.solve_ms.order-greedy", "ms"},
	{"solver.solve_ms.kubsv", "ms"},
	{"domset.algorithm_one_ms", "ms"},
	{"domset.lower_bound_ms", "ms"},
	{"connect.closure_ms", "ms"},
	{"distalgo.run_ms.paper", "ms"},
	{"distalgo.run_ms.kubsv", "ms"},
	{"distalgo.run_ms.cds", "ms"},
	{"dist.round_ms", "ms"},
	{"dist.rounds", "count"},
	{"dist.messages", "count"},
	{"dist.words", "count"},
	{"unattributed_ms", "ms"},
	{"trace_overhead_pct", "%"},
	{"gen_late_ms_p99", "ms"},
}

// maxGenLate is the benchmark's bound on generator lateness: a run whose
// p99 send lateness (measured only where the connection was idle at the
// due time) exceeds half the workload's latency limit is invalid, because
// lateness alone could then push operations past the limit and cut
// goodput.  (With a fifth of the machine's CPU stolen by other guests, p99
// lateness reached 25 ms.)
func maxGenLate(w workload) time.Duration { return w.Limit / 2 }

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// Two Ps (nproc on the target machine): a connection waiting on its
	// send time never delays the other's network wake-ups.  The daemon is
	// pinned to one.
	runtime.GOMAXPROCS(conns)
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-warm, churn or dist-sim")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics (adds the traced replay)")
	flag.StringVar(&cfg.domserved, "domserved", "", "domserved binary to start")
	flag.StringVar(&cfg.work, "work", "", "directory for daemon data, logs and trace files")
	flag.StringVar(&cfg.goroot, "goroot", "", "Go root whose src/ feeds the go-decls graph")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.scale = 1
	if cfg.domserved == "" || cfg.work == "" || cfg.goroot == "" {
		fmt.Fprintln(os.Stderr, "loadbench: -domserved, -work and -goroot are required (use loadbench/run.sh)")
		os.Exit(2)
	}
	cfg.runDir = filepath.Join(cfg.work, "run-"+strconv.Itoa(os.Getpid()))

	// run stops every daemon it starts; should the benchmark be killed
	// instead, Pdeathsig takes the daemon with it.
	res, err := run(cfg, os.Stderr)
	_ = os.RemoveAll(cfg.runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation and returns its result.  Human-
// readable detail goes to log.
func run(cfg config, log io.Writer) (*result, error) {
	w, ok := workloads(cfg.scale)[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-warm, churn or dist-sim)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, err
	}
	graphs, err := makeGraphs(w, cfg.seed, cfg.goroot)
	if err != nil {
		return nil, err
	}
	sched := buildSchedule(w, cfg.seed, graphs, time.Duration(cfg.seconds)*time.Second)

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var d *daemon
	defer func() { d.stop() }() // the daemon of the latest set-up
	var refs map[answerKey][]byte
	var setups, setupWalls []float64
	for rep := 0; rep < reps; rep++ {
		d.stop()
		var wall, cpu time.Duration
		d, refs, wall, cpu, err = setUp(cfg, w, graphs, sched, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
	}
	win, err := measure(d, w, sched, graphs)
	if err != nil {
		return nil, err
	}
	outs, bodies, elapsed, stealPct := win.outs, win.bodies, win.elapsed, win.stealPct
	ev := evaluate(sched, graphs, outs, bodies, refs)
	for _, msg := range ev.wrongMsgs {
		fmt.Fprintln(log, "loadbench: WRONG ANSWER:", msg)
	}

	m := map[string]float64{}
	q, mu := summarize(ev.queryMS), summarize(ev.mutateMS)
	m["setup_s"] = median(setups)
	m["goodput_ops_s"] = float64(ev.withinLimit(outs, sched, w.Limit)) / elapsed.Seconds()
	m["cpu_ms_per_op"] = float64(time.Duration(win.cpuTicks)*clockTick) / float64(time.Millisecond) / float64(max(1, ev.succeeded))
	m["rss_peak_mb"] = win.rssMB
	m["dom_size_ratio"] = ev.domRatio
	lateP99 := 0.0
	if len(ev.lateMS) > 0 {
		lateP99 = percentile(append([]float64(nil), ev.lateMS...), 99)
	}
	m["gen_late_ms_p99"] = lateP99
	for k, v := range layerMetrics(win.before, win.after, outs, sched) {
		m[k] = v
	}

	fmt.Fprintf(log, "loadbench: workload %s seed %d: %d ops over %.2fs at %.0f/s (limit %v), %d conns, daemon GOMAXPROCS=%s\n",
		w.Name, cfg.seed, len(sched.Ops), elapsed.Seconds(), w.Rate, w.Limit, conns, daemonGOMAXPROCS)
	for _, bg := range graphs {
		fmt.Fprintf(log, "  input %s: %s n=%d m=%d\n", bg.Name, bg.Spec.Family, bg.N, len(bg.Edges))
	}
	fmt.Fprintf(log, "  setup_s           %.4f s of daemon CPU (median of %d: %v; wall %v s)\n", m["setup_s"], len(setups), fmtList(setups), fmtList(setupWalls))
	fmt.Fprintf(log, "  query_p50_ms      %.4f ms (n=%d; not gated)\n", q.P50, q.N)
	if q.TailP > 0 {
		fmt.Fprintf(log, "  query_%s_ms  %.4f ms (tail; n=%d, %d beyond; not gated)\n", tailName(q.TailP), q.Tail, q.N, q.Beyond)
	}
	for _, kind := range sortedKeys(ev.kindMS) {
		k := summarize(ev.kindMS[kind])
		tail := "no tail percentile"
		if k.TailP > 0 {
			tail = fmt.Sprintf("%s %.4f ms", tailName(k.TailP), k.Tail)
		}
		fmt.Fprintf(log, "    %-12s p50 %.4f ms, %s (n=%d)\n", kind, k.P50, tail, k.N)
	}
	if mu.N > 0 {
		fmt.Fprintf(log, "  mutate_p50_ms     %.4f ms (n=%d)\n", mu.P50, mu.N)
	}
	if mu.TailP > 0 {
		fmt.Fprintf(log, "  mutate_%s_ms  %.4f ms (n=%d, %d beyond)\n", tailName(mu.TailP), mu.Tail, mu.N, mu.Beyond)
	}
	fmt.Fprintf(log, "  goodput_ops_s     %.4f 1/s\n", m["goodput_ops_s"])
	fmt.Fprintf(log, "  fail_ratio        %.4f (%d failed or wrong of %d)\n", float64(ev.failed)/float64(len(outs)), ev.failed, len(outs))
	fmt.Fprintf(log, "  cpu_ms_per_op     %.4f ms\n", m["cpu_ms_per_op"])
	fmt.Fprintf(log, "  rss_peak_mb       %.4f MiB (VmHWM of the daemon that served the window)\n", m["rss_peak_mb"])
	fmt.Fprintf(log, "  dom_size_ratio    %.4f (|D| / greedy reference, mean over %d answers)\n", ev.domRatio, ev.domKeys)
	if ev.distN > 0 {
		fmt.Fprintf(log, "  dist_rounds_mean  %.4f rounds\n", ev.distRounds/float64(ev.distN))
		fmt.Fprintf(log, "  dist_messages_mean %.4f messages\n", ev.distMessages/float64(ev.distN))
	}
	fmt.Fprintf(log, "  cpu_steal_pct     %.2f %% (machine CPU time stolen by the hypervisor during the window)\n", stealPct)
	fmt.Fprintf(log, "  gen_late_ms_p99   %.4f ms (bound %v, not gated; p50 %.3f, max %.3f, n=%d)\n", lateP99, maxGenLate(w),
		percentile(append([]float64(nil), ev.lateMS...), 50), percentile(append([]float64(nil), ev.lateMS...), 100), len(ev.lateMS))

	res := &result{
		Correct:   ev.wrong == 0,
		Attempted: len(outs),
		Failed:    ev.failed,
		Metrics:   map[string]metricValue{},
	}
	if time.Duration(lateP99*float64(time.Millisecond)) > maxGenLate(w) {
		return nil, fmt.Errorf("run invalid: generator p99 lateness %.2fms exceeds %v", lateP99, maxGenLate(w))
	}

	defs := endToEnd
	if cfg.trace {
		d.stop()
		lm, err := traceRun(cfg, w, graphs, sched, ev.opAnswer, log)
		if err != nil {
			return nil, err
		}
		for k, v := range lm {
			m[k] = v
		}
		defs = perLayer
	}
	for _, def := range defs {
		v, ok := m[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	return res, nil
}

// window is one measured pass of the schedule over a ready daemon.
type window struct {
	outs          []outcome
	bodies        map[uint64][]byte
	elapsed       time.Duration
	before, after metrics // /metrics scrapes around the pass
	cpuTicks      int64   // daemon utime+stime during the pass
	stealPct      float64 // machine CPU time stolen by the hypervisor, %
	rssMB         float64 // the daemon's peak RSS after the pass
}

func measure(d *daemon, w workload, s *schedule, graphs []*benchGraph) (*window, error) {
	pid := d.cmd.Process.Pid
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTicks(pid)
	if err != nil {
		return nil, err
	}
	tot0, steal0, err := cpuSteal()
	if err != nil {
		return nil, err
	}
	win := &window{before: before}
	win.outs, win.bodies, win.elapsed = drive(d, w, s, graphs)
	tot1, steal1, err := cpuSteal()
	if err != nil {
		return nil, err
	}
	win.stealPct = 100 * float64(steal1-steal0) / float64(max(1, tot1-tot0))
	cpu1, err := cpuTicks(pid)
	if err != nil {
		return nil, err
	}
	win.cpuTicks = cpu1 - cpu0
	if win.after, err = d.scrape(); err != nil {
		return nil, err
	}
	if win.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	return win, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'f', 3, 64)
	}
	return s
}

// evaluation is the checked outcome of a window.
type evaluation struct {
	queryMS, mutateMS, lateMS []float64
	succeeded, failed, wrong  int
	bad                       map[int]bool // op index -> failed or wrong
	wrongMsgs                 []string
	domRatio                  float64
	domKeys                   int
	distRounds, distMessages  float64
	distN                     int
	answers                   map[answerKey]*answer
	opAnswer                  []*answer            // decoded answer per operation (nil if failed)
	kindMS                    map[string][]float64 // query latencies by kind
}

// withinLimit counts the operations that succeeded with a correct answer
// within limit of their intended send time.
func (ev *evaluation) withinLimit(outs []outcome, s *schedule, limit time.Duration) int {
	n := 0
	for i := range outs {
		if outs[i].ok() && !ev.bad[i] && outs[i].Latency <= limit {
			n++
		}
	}
	return n
}

// evaluate checks every answer.  Answers that carry sets are checked
// against the benchmark's own topology; omit_sets answers must agree with
// the checked set-up answer of the same key.  A wrong set-up answer is a
// wrong answer too.  Failed and wrong operations count as infinitely slow.
func evaluate(s *schedule, graphs []*benchGraph, outs []outcome, bodies map[uint64][]byte,
	refs map[answerKey][]byte) *evaluation {
	ev := &evaluation{bad: map[int]bool{}, answers: map[answerKey]*answer{},
		opAnswer: make([]*answer, len(outs)), kindMS: map[string][]float64{}}
	topo := newTopologies(graphs, s.Deltas)
	note := func(msg string) {
		ev.wrong++
		if len(ev.wrongMsgs) < 10 {
			ev.wrongMsgs = append(ev.wrongMsgs, msg)
		}
	}
	// Set-up answers become references once checked.  A wrong one is left
	// out, so the omit_sets operations of its key fail for want of one.
	for _, k := range sortedAnswerKeys(refs) {
		a, err := decodeAnswer(refs[k])
		if err == nil {
			err = topo.check(k, a)
		}
		if err != nil {
			note(fmt.Sprintf("set-up %s on g%d r=%d %s: %v", k.Kind, k.Graph, k.R, k.Solver, err))
			continue
		}
		ev.answers[k] = a
	}
	wrong := func(i int, format string, args ...any) {
		ev.bad[i] = true
		note(fmt.Sprintf("op %d: ", i) + fmt.Sprintf(format, args...))
	}
	// Each distinct body is decoded and, when it carries sets, checked once.
	type verdict struct {
		a   *answer
		err error
	}
	verdicts := map[uint64]verdict{}
	var omits []int
	for i := range outs {
		o, out := &s.Ops[i], &outs[i]
		if out.LateSeen {
			ev.lateMS = append(ev.lateMS, float64(out.Late)/float64(time.Millisecond))
		}
		if !out.ok() {
			ev.bad[i] = true
			continue
		}
		if o.Kind != opQuery {
			continue
		}
		v, seen := verdicts[out.Hash]
		if !seen {
			v.a, v.err = decodeAnswer(bodies[out.Hash])
			if v.err == nil && !o.Query.OmitSets {
				g, err := topo.get(o.Graph, o.Version)
				if err == nil {
					err = checkAnswer(g, o.Query, v.a)
				}
				v.err = err
			}
			verdicts[out.Hash] = v
		}
		if v.err != nil {
			wrong(i, "%s on %s v%d: %v", o.Query.Kind, o.Query.Graph, o.Version, v.err)
			continue
		}
		ev.opAnswer[i] = v.a
		if o.Query.OmitSets {
			omits = append(omits, i)
			continue
		}
		k := keyOf(o)
		if ref, ok := ev.answers[k]; ok && !sameCost(v.a, ref) {
			wrong(i, "%s on %s v%d: size %d differs from earlier answer %d", o.Query.Kind, o.Query.Graph, o.Version, v.a.Size, ref.Size)
			continue
		}
		ev.answers[k] = v.a
	}
	for _, i := range omits {
		o, a := &s.Ops[i], ev.opAnswer[i]
		k := keyOf(o)
		ref, ok := ev.answers[k]
		if !ok {
			wrong(i, "%s on %s v%d: no checked full answer to compare the omit_sets answer with", o.Query.Kind, o.Query.Graph, o.Version)
			continue
		}
		if !sameCost(a, ref) {
			wrong(i, "%s on %s v%d: omit_sets answer (size %d, rounds %d) differs from the checked full answer (size %d, rounds %d)",
				o.Query.Kind, o.Query.Graph, o.Version, a.Size, a.Rounds, ref.Size, ref.Rounds)
		}
	}

	for i := range outs {
		o := &s.Ops[i]
		ms := float64(outs[i].Latency) / float64(time.Millisecond)
		if ev.bad[i] {
			ev.failed++
			ms = math.Inf(1)
		} else {
			ev.succeeded++
		}
		switch o.Kind {
		case opQuery:
			ev.queryMS = append(ev.queryMS, ms)
			ev.kindMS[o.Query.Kind] = append(ev.kindMS[o.Query.Kind], ms)
			if a := ev.opAnswer[i]; a != nil && !ev.bad[i] && strings.HasPrefix(o.Query.Kind, "dist-") {
				ev.distRounds += float64(a.Rounds)
				ev.distMessages += float64(a.Messages)
				ev.distN++
			}
		case opMutate:
			ev.mutateMS = append(ev.mutateMS, ms)
		}
	}

	// Quality: mean |D| / greedy reference over distinct domination answers.
	greedy := map[[3]int]int{}
	total := 0.0
	for _, k := range sortedAnswerKeys(ev.answers) {
		if k.Kind != "domset" && k.Kind != "dist-domset" {
			continue
		}
		rk := [3]int{k.Graph, k.Version, k.R}
		ref, ok := greedy[rk]
		if !ok {
			g, err := topo.get(k.Graph, k.Version)
			if err != nil {
				continue
			}
			ref = greedyRef(g, k.R)
			greedy[rk] = ref
		}
		total += float64(ev.answers[k].Size) / float64(max(1, ref))
		ev.domKeys++
	}
	if ev.domKeys > 0 {
		ev.domRatio = total / float64(ev.domKeys)
	}
	return ev
}

// layerMetrics derives the /metrics-sourced per-layer metrics from the
// scrapes around the window, plus the client-measured response size.
func layerMetrics(before, after metrics, outs []outcome, s *schedule) map[string]float64 {
	d := func(name string, frag ...string) float64 { return metricDelta(before, after, name, frag...) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	const query = `route="POST /query"`
	m := map[string]float64{}
	httpMS := 1000 * ratio(d("bedom_http_request_seconds_sum", query), d("bedom_http_request_seconds_count", query))
	execMS := 1000 * ratio(d("bedom_query_seconds_sum"), d("bedom_query_seconds_count"))
	m["domserved.http_ms"] = httpMS
	m["engine.exec_ms"] = execMS
	m["domserved.overhead_ms"] = httpMS - execMS
	hits, misses := d("bedom_cache_hits_total"), d("bedom_cache_misses_total")
	m["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.cache_misses"] = misses
	m["engine.coalesced"] = d("bedom_cache_coalesced_total")
	m["engine.rebuild_waits"] = d("bedom_rebuild_waits_total")
	m["engine.shed"] = d("bedom_queries_shed_total")
	m["engine.mutate_ms"] = 1000 * ratio(d("bedom_mutate_seconds_sum"), d("bedom_mutate_seconds_count"))
	m["store.wal_append_ms"] = 1000 * ratio(d("bedom_wal_append_seconds_sum"), d("bedom_wal_append_seconds_count"))
	m["store.snapshot_write_ms"] = 1000 * ratio(d("bedom_snapshot_write_seconds_sum"), d("bedom_snapshot_write_seconds_count"))
	bytes, n := 0, 0
	for i := range outs {
		if s.Ops[i].Kind == opQuery && outs[i].ok() {
			bytes += outs[i].Bytes
			n++
		}
	}
	m["domserved.response_bytes"] = ratio(float64(bytes), float64(n))
	return m
}
