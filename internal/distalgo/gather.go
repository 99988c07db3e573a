package distalgo

import (
	"cmp"
	"slices"

	"bedom/internal/graph"
)

// VertexInfo is the knowledge record a node shares about itself during
// LOCAL-model neighborhood gathering: its id, a boolean payload (dominator /
// set-membership flag, depending on the algorithm) and its adjacency list.
// Adj is the owner's Context.Neighbors slice, shared by every copy of the
// record and never modified.
type VertexInfo struct {
	ID   int
	Flag bool
	Adj  []int
}

// KnowledgeMessage carries a batch of knowledge records; it is only used in
// the LOCAL model, where message size is unbounded, but its Words method
// still reports the true size for the statistics.
type KnowledgeMessage []VertexInfo

// Words implements dist.Message.
func (m KnowledgeMessage) Words() int {
	w := 0
	for _, vi := range m {
		w += 2 + len(vi.Adj)
	}
	return w
}

// ballGatherer accumulates knowledge records: after t exchange rounds a node
// knows the records of every vertex within distance t.
type ballGatherer struct {
	ids idSet
	// recs holds every known record; recs[flushed:] are the ones learned
	// since the last flush.  A flushed message is a subslice of recs: the
	// records in it are never written again, and later appends only write
	// past it, so receivers may read it while the owner keeps gathering.
	recs    []VertexInfo
	flushed int
	sent    sendBuffers[KnowledgeMessage]
}

// seed starts the gatherer with the owner's own record.  The ball holds at
// least the owner and its neighbors, so room for those is reserved.
func (b *ballGatherer) seed(self VertexInfo) {
	b.ids.reserve(len(self.Adj) + 1)
	b.recs = make([]VertexInfo, 0, len(self.Adj)+1)
	b.add(self)
}

// add records vi unless it is already known.
func (b *ballGatherer) add(vi VertexInfo) {
	if b.ids.insert(vi.ID) {
		b.recs = append(b.recs, vi)
	}
}

// absorb merges incoming records, remembering which ones are new so they can
// be forwarded exactly once.
func (b *ballGatherer) absorb(msg *KnowledgeMessage) {
	for _, vi := range *msg {
		b.add(vi)
	}
}

// known returns the number of known records.
func (b *ballGatherer) known() int { return len(b.recs) }

// flush returns the records learned since the last flush, sorted by id, as
// a message to broadcast (nil when there are none).
func (b *ballGatherer) flush() *KnowledgeMessage {
	n := len(b.recs)
	if b.flushed == n {
		return nil
	}
	fresh := b.recs[b.flushed:n:n]
	slices.SortFunc(fresh, func(x, y VertexInfo) int { return cmp.Compare(x.ID, y.ID) })
	b.flushed = n
	msg, _ := b.sent.swap(fresh)
	return msg
}

// localView materialises the gathered knowledge as a graph on the known
// vertices.  It returns the local graph, the mapping from local index to
// global id, the inverse mapping, and the flags of the known vertices by
// local index.  Edges are included when at least one endpoint's record lists
// the other (records are symmetric in a correct run, but partial knowledge
// at the ball boundary may be one-sided).
func (b *ballGatherer) localView() (lg *graph.Graph, toGlobal []int, toLocal map[int]int, flags []bool) {
	recs := slices.Clone(b.recs)
	slices.SortFunc(recs, func(x, y VertexInfo) int { return cmp.Compare(x.ID, y.ID) })
	toGlobal = make([]int, len(recs))
	toLocal = make(map[int]int, len(recs))
	for i, rec := range recs {
		toGlobal[i] = rec.ID
		toLocal[rec.ID] = i
	}
	lg = graph.New(len(recs))
	flags = make([]bool, len(recs))
	for i, rec := range recs {
		flags[i] = rec.Flag
		for _, nb := range rec.Adj {
			if j, ok := toLocal[nb]; ok && i != j && !lg.HasEdge(i, j) {
				// Error impossible: indices are in range and distinct.
				_ = lg.AddEdge(i, j)
			}
		}
	}
	lg.Finalize()
	return lg, toGlobal, toLocal, flags
}
