package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// setUp starts a fresh daemon, registers every input and runs every
// distinct query shape of the workload once, with sets: on serve-warm this
// builds every substrate the window can touch, and the answers are the
// checked references that omit_sets answers must agree with.  It returns
// the ready daemon, the reference bodies, the set-up wall time and the
// daemon's CPU time up to that point (all of it spent on set-up).
func setUp(cfg config, w workload, graphs []*benchGraph, s *schedule, rep int) (d *daemon, refs map[answerKey][]byte, wall, cpu time.Duration, err error) {
	start := time.Now()
	dataDir := ""
	if w.Persist {
		dataDir = filepath.Join(cfg.runDir, "data-"+strconv.Itoa(rep))
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	if d, err = startDaemon(cfg.domserved, cfg.runDir, dataDir); err != nil {
		return nil, nil, 0, 0, err
	}
	fail := func(err error) (*daemon, map[answerKey][]byte, time.Duration, time.Duration, error) {
		d.stop()
		return nil, nil, 0, 0, err
	}
	for _, bg := range graphs {
		var err error
		if bg.Spec.Family == "go-decls" {
			_, err = d.mustOK(http.MethodPost, "/graphs", "application/x-ndjson", bg.ndjsonBody())
		} else {
			_, err = d.mustOK(http.MethodPost, "/graphs?name="+bg.Name, "text/plain", bg.edgeListBody())
		}
		if err != nil {
			return fail(fmt.Errorf("register %s: %w", bg.Name, err))
		}
	}
	refs = map[answerKey][]byte{}
	for _, wq := range warmQueries(s) {
		body, _ := json.Marshal(wq.q)
		b, err := d.mustOK(http.MethodPost, "/query", "application/json", body)
		if err != nil {
			return fail(fmt.Errorf("set-up query %+v: %w", wq.q, err))
		}
		refs[answerKey{wq.graph, 0, wq.q.Kind, wq.q.R, wq.q.Solver}] = b
	}
	wall = time.Since(start)
	ticks, err := cpuTicks(d.cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	return d, refs, wall, time.Duration(ticks) * clockTick, nil
}

// warmQuery is one set-up query on graph index graph.
type warmQuery struct {
	graph int
	q     query
}

// warmQueries lists every distinct query shape of the schedule, with sets
// (omit_sets does not change what is computed).  On churn the shapes are
// asked of the registered topologies.  The order is fixed, not the
// schedule's: the set-up's allocation sequence sets the daemon's peak RSS,
// and a seed-shuffled order moved it by up to 40% between seeds.
func warmQueries(s *schedule) []warmQuery {
	seen := map[answerKey]bool{}
	var out []warmQuery
	for i := range s.Ops {
		o := &s.Ops[i]
		if o.Kind != opQuery {
			continue
		}
		k := keyOf(o)
		k.Version = 0
		if seen[k] {
			continue
		}
		seen[k] = true
		q := *o.Query
		q.OmitSets = false
		out = append(out, warmQuery{o.Graph, q})
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// outcome is what happened to one scheduled operation.  Identical
// responses to the same operation shape are stored once: Hash keys the
// body in the window's body table.
type outcome struct {
	Status  int
	Hash    uint64
	Bytes   int
	Err     error
	Latency time.Duration // from the intended send time to the last byte
	// Late is how far after its intended time the operation was sent,
	// recorded only when its connection was idle at that time (so it
	// measures the generator, not a backlog).
	Late     time.Duration
	LateSeen bool
}

func (o *outcome) ok() bool { return o.Err == nil && o.Status/100 == 2 }

// requestFor renders one operation as an HTTP request.
func requestFor(o *op, graphs []*benchGraph) (method, path, ctype string, body []byte) {
	switch o.Kind {
	case opMutate:
		body, _ = json.Marshal(o.Delta)
		return http.MethodPost, "/graphs/" + graphs[o.Graph].Name + "/edges", "application/json", body
	case opCheckpoint:
		return http.MethodPost, "/admin/checkpoint", "", nil
	default:
		body, _ = json.Marshal(o.Query)
		return http.MethodPost, "/query", "application/json", body
	}
}

// sleepUntil returns at t: it sleeps to within spinWindow of t (the
// runtime's timers overshoot by up to about a millisecond), then yields
// until t.
func sleepUntil(t time.Time) {
	const spinWindow = 1200 * time.Microsecond
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// bodyHash identifies a response body together with the shape of the
// operation it answered.
func bodyHash(o *op, body []byte) uint64 {
	h := fnv.New64a()
	if o.Query != nil {
		fmt.Fprintf(h, "%v|%v|", keyOf(o), o.Query.OmitSets)
	}
	h.Write(body)
	return h.Sum64()
}

// drive replays the schedule open-loop against the daemon: every operation
// is due at a fixed offset from the window start whatever happened before
// it, and its latency runs from that due time.  It returns one outcome per
// operation, the distinct response bodies by hash (so a long window keeps
// little garbage in the generator) and the window's wall time (start to
// last completion).
func drive(d *daemon, w workload, s *schedule, graphs []*benchGraph) ([]outcome, map[uint64][]byte, time.Duration) {
	type prepared struct {
		method, path, ctype string
		body                []byte
	}
	reqs := make([]prepared, len(s.Ops))
	for i := range s.Ops {
		m, p, c, b := requestFor(&s.Ops[i], graphs)
		reqs[i] = prepared{m, p, c, b}
	}
	out := make([]outcome, len(s.Ops))
	var mu sync.Mutex
	bodies := map[uint64][]byte{}
	start := time.Now().Add(20 * time.Millisecond)
	send := func(i int, buf *bytes.Buffer) {
		due := start.Add(s.Ops[i].At)
		idle := time.Now().Before(due)
		sleepUntil(due)
		sent := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		buf.Reset()
		status, err := d.doInto(ctx, reqs[i].method, reqs[i].path, reqs[i].ctype, reqs[i].body, buf)
		cancel()
		out[i] = outcome{Status: status, Err: err, Latency: time.Since(due), Bytes: buf.Len()}
		if idle {
			out[i].Late, out[i].LateSeen = sent.Sub(due), true
		}
		h := bodyHash(&s.Ops[i], buf.Bytes())
		out[i].Hash = h
		mu.Lock()
		if _, ok := bodies[h]; !ok {
			bodies[h] = bytes.Clone(buf.Bytes())
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	if w.Lanes <= 1 {
		var next atomic.Int64
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := int(next.Add(1) - 1)
					if i >= len(s.Ops) {
						return
					}
					send(i, &buf)
				}
			}()
		}
	} else {
		for lane := 0; lane < w.Lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				var buf bytes.Buffer
				for i := range s.Ops {
					if s.Ops[i].Lane == lane {
						send(i, &buf)
					}
				}
			}(lane)
		}
	}
	wg.Wait()
	return out, bodies, time.Since(start)
}
