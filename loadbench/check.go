package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"sort"

	"bedom/internal/connect"
	"bedom/internal/domset"
	"bedom/internal/graph"
)

// answer is the part of a /query response the benchmark checks.
type answer struct {
	Kind           string `json:"kind"`
	R              int    `json:"r"`
	Solver         string `json:"solver"`
	Set            []int  `json:"set"`
	Size           int    `json:"size"`
	DomSet         []int  `json:"dom_set"`
	CoverDegree    int    `json:"cover_degree"`
	CoverMaxRadius int    `json:"cover_max_radius"`
	Rounds         int    `json:"rounds"`
	Messages       int64  `json:"messages"`
}

// answerKey identifies one deterministic answer: the same key always has
// the same correct size (and simulator cost).
type answerKey struct {
	Graph, Version int
	Kind           string
	R              int
	Solver         string
}

func keyOf(o *op) answerKey {
	return answerKey{o.Graph, o.Version, o.Query.Kind, o.Query.R, o.Query.Solver}
}

// topologies rebuilds the benchmark's own copy of any (graph, version).
type topologies struct {
	base   []*benchGraph
	deltas [][]delta
	cache  map[[2]int]*graph.Graph
}

func newTopologies(base []*benchGraph, deltas [][]delta) *topologies {
	return &topologies{base: base, deltas: deltas, cache: map[[2]int]*graph.Graph{}}
}

func (t *topologies) get(g, version int) (*graph.Graph, error) {
	if x, ok := t.cache[[2]int{g, version}]; ok {
		return x, nil
	}
	a := newAdjacency(t.base[g].N, t.base[g].Edges)
	for _, d := range t.deltas[g][:version] {
		a.apply(d)
	}
	x, err := graph.FromEdges(t.base[g].N, a.edges())
	if err != nil {
		return nil, err
	}
	t.cache[[2]int{g, version}] = x
	return x, nil
}

// check validates a full (sets included) answer of key k.
func (t *topologies) check(k answerKey, a *answer) error {
	g, err := t.get(k.Graph, k.Version)
	if err != nil {
		return err
	}
	return checkAnswer(g, &query{Kind: k.Kind, R: k.R, Solver: k.Solver}, a)
}

// sortedAnswerKeys lists the keys of m in a fixed order.
func sortedAnswerKeys[V any](m map[answerKey]V) []answerKey {
	keys := make([]answerKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	return keys
}

// checkAnswer validates a response that carries its sets against the
// topology it ran on.
func checkAnswer(g *graph.Graph, q *query, a *answer) error {
	if a.Kind != q.Kind || a.R != q.R {
		return fmt.Errorf("response echoes kind %q r=%d, asked %q r=%d", a.Kind, a.R, q.Kind, q.R)
	}
	inRange := func(set []int) error {
		if !sort.IntsAreSorted(set) {
			return fmt.Errorf("%s set not sorted", q.Kind)
		}
		for i, v := range set {
			if v < 0 || v >= g.N() || (i > 0 && set[i-1] == v) {
				return fmt.Errorf("%s set has invalid or repeated vertex %d", q.Kind, v)
			}
		}
		return nil
	}
	switch q.Kind {
	case "domset", "dist-domset":
		if q.OmitSets {
			return nil
		}
		if err := inRange(a.Set); err != nil {
			return err
		}
		if a.Size != len(a.Set) {
			return fmt.Errorf("%s size %d but %d vertices", q.Kind, a.Size, len(a.Set))
		}
		if !domset.Check(g, a.Set, q.R) {
			return fmt.Errorf("%s set of %d vertices does not %d-dominate the graph", q.Kind, len(a.Set), q.R)
		}
	case "cds", "dist-cds":
		if q.OmitSets {
			return nil
		}
		if err := inRange(a.Set); err != nil {
			return err
		}
		if a.Size != len(a.Set) {
			return fmt.Errorf("%s size %d but %d vertices", q.Kind, a.Size, len(a.Set))
		}
		if !domset.Check(g, a.Set, q.R) {
			return fmt.Errorf("%s set of %d vertices does not %d-dominate the graph", q.Kind, len(a.Set), q.R)
		}
		if q.Kind == "cds" && !connect.CheckConnected(g, a.Set, q.R) {
			return fmt.Errorf("cds set of %d vertices is not a connected %d-dominating set", len(a.Set), q.R)
		}
	case "cover":
		if a.CoverMaxRadius > 2*q.R || a.CoverMaxRadius < 0 {
			return fmt.Errorf("cover max radius %d exceeds 2r=%d", a.CoverMaxRadius, 2*q.R)
		}
		if a.Size < 1 || a.CoverDegree < 1 {
			return fmt.Errorf("cover with %d clusters and degree %d", a.Size, a.CoverDegree)
		}
	default:
		return fmt.Errorf("unknown kind %q", q.Kind)
	}
	return nil
}

// sameCost reports whether an omit_sets answer agrees with the verified
// full answer of the same key (the pipelines are deterministic).
func sameCost(a, ref *answer) bool {
	return a.Size == ref.Size && a.Rounds == ref.Rounds && a.Messages == ref.Messages &&
		a.CoverDegree == ref.CoverDegree && a.CoverMaxRadius == ref.CoverMaxRadius
}

func decodeAnswer(body []byte) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &a, nil
}

// greedyRef is the benchmark's own reference dominating set size: the
// classical greedy (repeatedly take the vertex whose radius-r ball holds
// the most undominated vertices, ties to the lower id).
func greedyRef(g *graph.Graph, r int) int {
	n := g.N()
	dominated := make([]bool, n)
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	var queue []int32
	ball := func(v, stamp int, visit func(int)) {
		queue = append(queue[:0], int32(v))
		seen[v] = stamp
		depth := 0
		for lo := 0; lo < len(queue) && depth <= r; depth++ {
			hi := len(queue)
			for _, u := range queue[lo:hi] {
				visit(int(u))
				if depth == r {
					continue
				}
				for _, w := range g.Neighbors(int(u)) {
					if seen[w] != stamp {
						seen[w] = stamp
						queue = append(queue, w)
					}
				}
			}
			lo = hi
		}
	}
	stamp := 0
	gain := func(v int) int {
		c := 0
		stamp++
		ball(v, stamp, func(u int) {
			if !dominated[u] {
				c++
			}
		})
		return c
	}
	h := &gainHeap{}
	for v := 0; v < n; v++ {
		h.items = append(h.items, gainItem{v: v, gain: gain(v)})
	}
	heap.Init(h)
	left, size := n, 0
	for left > 0 {
		top := heap.Pop(h).(gainItem)
		if g := gain(top.v); g != top.gain {
			top.gain = g
			heap.Push(h, top)
			continue
		}
		size++
		stamp++
		ball(top.v, stamp, func(u int) {
			if !dominated[u] {
				dominated[u] = true
				left--
			}
		})
	}
	return size
}

type gainItem struct{ v, gain int }

type gainHeap struct{ items []gainItem }

func (h *gainHeap) Len() int { return len(h.items) }
func (h *gainHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.gain > b.gain || (a.gain == b.gain && a.v < b.v)
}
func (h *gainHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *gainHeap) Push(x any)    { h.items = append(h.items, x.(gainItem)) }
func (h *gainHeap) Pop() any {
	x := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return x
}
