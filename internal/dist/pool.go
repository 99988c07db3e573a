package dist

import "bedom/internal/graph"

// roundAccum collects the per-round bookkeeping of one worker: delivery
// statistics, the quiescence and halting flags, and whether a model
// violation was recorded.  Workers fill private accumulators that are merged
// after the round; every merged quantity is order-independent (sums, max,
// AND/OR), so the result is identical for any worker count and scheduling.
type roundAccum struct {
	messages int64
	words    int64
	maxWords int
	// active counts vertices that staged at least one message this step;
	// halted counts vertices reporting Done (nodes without a Halter always
	// count).  Both feed the round profiles of probe.go and are plain sums,
	// so they stay order-independent like everything else here.
	active  int
	halted  int
	anySent bool
	allDone bool
	errSeen bool
}

func (a *roundAccum) deliver(words int) {
	a.messages++
	a.words += int64(words)
	if words > a.maxWords {
		a.maxWords = words
	}
}

func (a *roundAccum) merge(b *roundAccum) {
	a.messages += b.messages
	a.words += b.words
	if b.maxWords > a.maxWords {
		a.maxWords = b.maxWords
	}
	a.active += b.active
	a.halted += b.halted
	a.anySent = a.anySent || b.anySent
	a.allDone = a.allDone && b.allDone
	a.errSeen = a.errSeen || b.errSeen
}

// worker is the state of one worker goroutine of a round: its accumulator
// and the inbox buffer it fills for every vertex it steps.  Both live for
// the whole run, so a round allocates no per-vertex inboxes.
type worker struct {
	acc   roundAccum
	inbox []Inbound
}

// forEachNode applies fn to every vertex, fanned out over the run's workers
// in contiguous index blocks, and returns the merged accumulator.  fn must
// only touch state owned by its vertex or its worker (see Runner.step);
// graph.ParallelBlocks' wait provides the happens-before edges between
// rounds.
func (r *Runner) forEachNode(fn func(w *worker, v int)) roundAccum {
	graph.ParallelBlocks(r.g.N(), len(r.workers), func(k, lo, hi int) {
		w := &r.workers[k]
		w.acc = roundAccum{allDone: true}
		for v := lo; v < hi; v++ {
			fn(w, v)
		}
	})
	total := roundAccum{allDone: true}
	for k := range r.workers {
		total.merge(&r.workers[k].acc)
	}
	return total
}
