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

// forEachNode applies fn to every vertex, fanned out over Options.Workers
// (0 = GOMAXPROCS) in contiguous index blocks, and returns the merged
// accumulator.  fn must only touch state owned by its vertex (see
// Runner.step); graph.ParallelBlocks' wait provides the happens-before edges
// between rounds.
func (r *Runner) forEachNode(fn func(acc *roundAccum, v int)) roundAccum {
	n := r.g.N()
	accs := make([]roundAccum, graph.ResolveWorkers(r.opts.Workers, n))
	graph.ParallelBlocks(n, len(accs), func(k, lo, hi int) {
		acc := &accs[k]
		*acc = roundAccum{allDone: true}
		for v := lo; v < hi; v++ {
			fn(acc, v)
		}
	})
	total := roundAccum{allDone: true}
	for k := range accs {
		total.merge(&accs[k])
	}
	return total
}
