package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"sort"
	"time"
)

// Operation kinds of a schedule.
const (
	opQuery      = "query"
	opMutate     = "mutate"
	opCheckpoint = "checkpoint"
)

// query is the body of one POST /query.
type query struct {
	Graph    string `json:"graph"`
	Kind     string `json:"kind"`
	R        int    `json:"r"`
	Solver   string `json:"solver,omitempty"`
	OmitSets bool   `json:"omit_sets,omitempty"`
}

// delta is the body of one POST /graphs/{name}/edges.
type delta struct {
	Add    [][2]int `json:"add,omitempty"`
	Remove [][2]int `json:"remove,omitempty"`
}

// op is one scheduled operation.  At is its intended send time relative to
// the start of the measured window; Lane pins it to a connection (see
// workload.Lanes); Version is the number of mutations of Graph scheduled
// before it, which is the topology it runs on because a graph's operations
// never overlap.
type op struct {
	ID      int           `json:"id"`
	At      time.Duration `json:"at_ns"`
	Lane    int           `json:"lane"`
	Kind    string        `json:"kind"`
	Graph   int           `json:"graph"`
	Version int           `json:"version"`
	Query   *query        `json:"query,omitempty"`
	Delta   *delta        `json:"delta,omitempty"`
}

// schedule is a workload's full operation sequence, in intended-send order.
type schedule struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      []op   `json:"ops"`
	// Deltas[g] lists graph g's mutations in order: version v of g is the
	// registered topology with Deltas[g][:v] applied.
	Deltas [][]delta `json:"deltas"`
}

// encode is the schedule's canonical byte form (the determinism contract:
// the same seed gives byte-identical bytes).
func (s *schedule) encode() []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	_ = enc.Encode(s) // plain structs: cannot fail
	return b.Bytes()
}

// seqSolvers are the sequential strategies the domset queries draw from.
var seqSolvers = []string{"paper", "dvorak", "greedy", "order-greedy", "kubsv"}

// buildSchedule generates a workload's operations for a window of the given
// length from the seed and the generated inputs.
func buildSchedule(w workload, seed uint64, graphs []*benchGraph, window time.Duration) *schedule {
	s := &schedule{Workload: w.Name, Seed: seed, Deltas: make([][]delta, len(graphs))}
	count := max(1, int(w.Rate*window.Seconds()))
	interval := time.Duration(float64(time.Second) / w.Rate)
	rng := subSeed(seed, "schedule", 0)

	add := func(o op) {
		o.ID = len(s.Ops)
		o.At = time.Duration(o.ID) * interval
		if o.Graph >= 0 && o.Graph < len(graphs) {
			o.Version = len(s.Deltas[o.Graph])
			if o.Query != nil {
				o.Query.Graph = graphs[o.Graph].Name
			}
		}
		s.Ops = append(s.Ops, o)
	}

	switch w.Name {
	case "serve-warm":
		// Per graph, every (r, solver) domset four times, one of them with
		// omit_sets, and cover at each r four times, dealt in shuffled
		// rounds (83%/17%); every 50th arrival is a cds on the first graph
		// (2%).  Spacing the cds evenly on one graph keeps the tail they
		// set a property of the cds path rather than of how often the
		// shuffle puts two of them back to back.
		var mix []query
		for _, bg := range graphs {
			for r := 1; r <= 2; r++ {
				for _, sv := range seqSolvers {
					q := query{Graph: bg.Name, Kind: "domset", R: r, Solver: sv}
					omit := q
					omit.OmitSets = true
					mix = append(mix, q, q, q, omit)
				}
				c := query{Graph: bg.Name, Kind: "cover", R: r}
				mix = append(mix, c, c, c, c)
			}
		}
		d := newDeck(rng, mix)
		for len(s.Ops) < count {
			q := query{Graph: graphs[0].Name, Kind: "cds", R: 1}
			if len(s.Ops)%50 != 25 {
				q = d.next()
			}
			add(op{Kind: opQuery, Graph: graphIndex(graphs, q.Graph), Query: &q})
		}

	case "churn":
		// Each lane cycles through its own graphs: one small local delta,
		// then a domset and a cover query at the same r on the mutated
		// topology (with sets: every version is queried once, so there is
		// no full answer to compare an omit_sets answer against).  Lanes
		// take alternate arrival slots; a checkpoint rides lane 0 every
		// checkpointEvery operations so snapshot writes happen in-window.
		const checkpointEvery = 60
		type cycle struct {
			g, r   int
			solver string
		}
		topo := make([]*adjacency, len(graphs))
		for i, bg := range graphs {
			topo[i] = newAdjacency(bg.N, bg.Edges)
		}
		decks := make([]*deck[cycle], w.Lanes)
		for lane := range decks {
			var cycles []cycle
			for g := lane; g < len(graphs); g += w.Lanes {
				for r := 1; r <= 2; r++ {
					for _, sv := range seqSolvers {
						cycles = append(cycles, cycle{g, r, sv})
					}
				}
			}
			decks[lane] = newDeck(rng, cycles)
		}
		pending := make([][]op, w.Lanes)
		for len(s.Ops) < count {
			lane := len(s.Ops) % w.Lanes
			if lane == 0 && len(s.Ops) > 0 && len(s.Ops)%checkpointEvery == 0 {
				add(op{Kind: opCheckpoint, Lane: 0, Graph: -1})
				continue
			}
			if len(pending[lane]) == 0 {
				c := decks[lane].next()
				d := topo[c.g].localDelta(rng, 2)
				pending[lane] = []op{
					{Kind: opMutate, Lane: lane, Graph: c.g, Delta: &d},
					{Kind: opQuery, Lane: lane, Graph: c.g, Query: &query{Kind: "domset", R: c.r, Solver: c.solver}},
					{Kind: opQuery, Lane: lane, Graph: c.g, Query: &query{Kind: "cover", R: c.r}},
				}
			}
			o := pending[lane][0]
			pending[lane] = pending[lane][1:]
			add(o)
			if o.Kind == opMutate {
				s.Deltas[o.Graph] = append(s.Deltas[o.Graph], *o.Delta)
			}
		}

	case "dist-sim":
		// Per graph, in 6 arrivals: dist-domset paper, dist-domset kubsv
		// and dist-cds at each r.
		var mix []query
		for _, bg := range graphs {
			for r := 1; r <= 2; r++ {
				mix = append(mix,
					query{Graph: bg.Name, Kind: "dist-domset", R: r, Solver: "paper", OmitSets: true},
					query{Graph: bg.Name, Kind: "dist-domset", R: r, Solver: "kubsv", OmitSets: true},
					query{Graph: bg.Name, Kind: "dist-cds", R: r, OmitSets: true})
			}
		}
		d := newDeck(rng, mix)
		for len(s.Ops) < count {
			q := d.next()
			add(op{Kind: opQuery, Graph: graphIndex(graphs, q.Graph), Query: &q})
		}
	}
	return s
}

// deck deals a mix in shuffled rounds: each round of len(items) draws
// holds every item exactly once, so a window's mix matches the stated
// proportions to within one round whatever the seed.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	order []int
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] {
	return &deck[T]{rng: rng, items: items}
}

func (d *deck[T]) next() T {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(len(d.items))
	}
	i := d.order[0]
	d.order = d.order[1:]
	return d.items[i]
}

func graphIndex(graphs []*benchGraph, name string) int {
	for i, bg := range graphs {
		if bg.Name == name {
			return i
		}
	}
	return -1
}

// adjacency is the benchmark's own mutable copy of a topology.
type adjacency struct {
	nbrs []map[int]bool
}

func newAdjacency(n int, edges [][2]int) *adjacency {
	a := &adjacency{nbrs: make([]map[int]bool, n)}
	for i := range a.nbrs {
		a.nbrs[i] = map[int]bool{}
	}
	for _, e := range edges {
		a.nbrs[e[0]][e[1]] = true
		a.nbrs[e[1]][e[0]] = true
	}
	return a
}

func (a *adjacency) apply(d delta) {
	for _, e := range d.Remove {
		delete(a.nbrs[e[0]], e[1])
		delete(a.nbrs[e[1]], e[0])
	}
	for _, e := range d.Add {
		a.nbrs[e[0]][e[1]] = true
		a.nbrs[e[1]][e[0]] = true
	}
}

func (a *adjacency) edges() [][2]int {
	var out [][2]int
	for u, ns := range a.nbrs {
		for v := range ns {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (a *adjacency) sortedNbrs(v int) []int {
	out := make([]int, 0, len(a.nbrs[v]))
	for u := range a.nbrs[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// localDelta draws a small local edit and applies it to a: k edges are
// removed, and k chords are added, each closing a path of length two (so
// edits stay local and the graph stays sparse).
func (a *adjacency) localDelta(rng *rand.Rand, k int) delta {
	var d delta
	n := len(a.nbrs)
	for tries := 0; len(d.Remove) < k && tries < 100*k; tries++ {
		u := rng.IntN(n)
		ns := a.sortedNbrs(u)
		if len(ns) < 2 { // keep leaves attached
			continue
		}
		v := ns[rng.IntN(len(ns))]
		if len(a.nbrs[v]) < 2 {
			continue
		}
		e := [2]int{min(u, v), max(u, v)}
		a.apply(delta{Remove: [][2]int{e}})
		d.Remove = append(d.Remove, e)
	}
	for tries := 0; len(d.Add) < k && tries < 100*k; tries++ {
		u := rng.IntN(n)
		ns := a.sortedNbrs(u)
		if len(ns) == 0 {
			continue
		}
		mid := ns[rng.IntN(len(ns))]
		ws := a.sortedNbrs(mid)
		w := ws[rng.IntN(len(ws))]
		if w == u || a.nbrs[u][w] {
			continue
		}
		e := [2]int{min(u, w), max(u, w)}
		a.apply(delta{Add: [][2]int{e}})
		d.Add = append(d.Add, e)
	}
	return d
}
