package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"bedom/internal/gen"
)

// pathGraph is the path 0-1-...-(n-1) as a benchmark input.
func pathGraph(n int) *benchGraph {
	bg := &benchGraph{Name: "g0", N: n}
	for i := 0; i+1 < n; i++ {
		bg.Edges = append(bg.Edges, [2]int{i, i + 1})
	}
	return bg
}

func body(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// answered records a successful response to op o in a body table.
func answered(o *op, b []byte, bodies map[uint64][]byte) outcome {
	h := bodyHash(o, b)
	bodies[h] = b
	return outcome{Status: http.StatusOK, Hash: h, Bytes: len(b)}
}

func TestInjectedNonDominatingAnswerCaught(t *testing.T) {
	graphs := []*benchGraph{pathGraph(9)}
	s := &schedule{Deltas: make([][]delta, 1), Ops: []op{
		{ID: 0, Kind: opQuery, Graph: 0, Query: &query{Graph: "g0", Kind: "domset", R: 1, Solver: "paper"}},
		{ID: 1, Kind: opQuery, Graph: 0, Query: &query{Graph: "g0", Kind: "domset", R: 1, Solver: "greedy"}},
	}}
	good := map[string]any{"kind": "domset", "r": 1, "set": []int{1, 4, 7}, "size": 3}
	bad := map[string]any{"kind": "domset", "r": 1, "set": []int{1, 4}, "size": 2} // misses 6, 7, 8
	bodies := map[uint64][]byte{}
	outs := []outcome{
		answered(&s.Ops[0], body(t, good), bodies),
		answered(&s.Ops[1], body(t, bad), bodies),
	}
	ev := evaluate(s, graphs, outs, bodies, nil)
	if ev.wrong != 1 || ev.failed != 1 || !ev.bad[1] || ev.bad[0] {
		t.Fatalf("wrong=%d failed=%d bad=%v: want exactly op 1 caught", ev.wrong, ev.failed, ev.bad)
	}
	if len(ev.wrongMsgs) != 1 || !strings.Contains(ev.wrongMsgs[0], "does not 1-dominate") {
		t.Fatalf("messages %q", ev.wrongMsgs)
	}
}

func TestInjectedWrongAnswersOfEveryKindCaught(t *testing.T) {
	g, _ := gen.LargestComponent(gen.Grid(5, 5))
	bg := &benchGraph{Name: "g0", N: g.N(), Edges: g.Edges()}
	tg, err := newTopologies([]*benchGraph{bg}, [][]delta{nil}).get(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q query
		a answer
	}{
		{query{Kind: "cover", R: 1}, answer{Kind: "cover", R: 1, Size: 4, CoverDegree: 2, CoverMaxRadius: 3}},
		{query{Kind: "cds", R: 1}, answer{Kind: "cds", R: 1, Set: []int{0, 2, 4, 10, 12, 14, 20, 22, 24}, Size: 9}}, // dominates, not connected
		{query{Kind: "dist-domset", R: 2, Solver: "kubsv"}, answer{Kind: "dist-domset", R: 2, Set: []int{12}, Size: 1}},
		{query{Kind: "dist-cds", R: 1}, answer{Kind: "dist-cds", R: 1, Set: []int{12}, Size: 1}},
		{query{Kind: "domset", R: 1}, answer{Kind: "domset", R: 1, Set: []int{0, 0}, Size: 2}},
		{query{Kind: "domset", R: 2}, answer{Kind: "domset", R: 1, Set: []int{12}, Size: 1}},
	} {
		if err := checkAnswer(tg, &c.q, &c.a); err == nil {
			t.Errorf("%s r=%d: wrong answer %+v accepted", c.q.Kind, c.q.R, c.a)
		}
	}
	// An omit_sets answer must agree with the checked full answer.
	s := &schedule{Deltas: make([][]delta, 1), Ops: []op{
		{ID: 0, Kind: opQuery, Graph: 0, Query: &query{Graph: "g0", Kind: "dist-domset", R: 1, Solver: "paper", OmitSets: true}},
	}}
	full := body(t, answer{Kind: "dist-domset", R: 1, Set: []int{1, 4, 7}, Size: 3, Rounds: 5})
	omitted := body(t, answer{Kind: "dist-domset", R: 1, Size: 2, Rounds: 5})
	refs := map[answerKey][]byte{{0, 0, "dist-domset", 1, "paper"}: full}
	bodies := map[uint64][]byte{}
	outs := []outcome{answered(&s.Ops[0], omitted, bodies)}
	ev := evaluate(s, []*benchGraph{pathGraph(9)}, outs, bodies, refs)
	if ev.wrong != 1 {
		t.Fatalf("omit_sets answer of size 2 against a checked size-3 reference: wrong=%d", ev.wrong)
	}

	// A wrong set-up answer is itself a wrong answer, and the omit_sets
	// operations of its key, left without a reference, fail.
	refs[answerKey{0, 0, "dist-domset", 1, "paper"}] = body(t, answer{Kind: "dist-domset", R: 1, Set: []int{1, 4}, Size: 2})
	ev = evaluate(s, []*benchGraph{pathGraph(9)}, outs, bodies, refs)
	if ev.wrong != 2 || ev.failed != 1 || !strings.Contains(ev.wrongMsgs[0], "set-up dist-domset") {
		t.Fatalf("non-dominating set-up answer: wrong=%d failed=%d messages %q", ev.wrong, ev.failed, ev.wrongMsgs)
	}
}

func TestGreedyReference(t *testing.T) {
	star := &benchGraph{N: 6, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}}
	for _, c := range []struct {
		bg   *benchGraph
		r    int
		want int
	}{
		{pathGraph(9), 1, 3}, {pathGraph(9), 4, 1}, {star, 1, 1}, {pathGraph(1), 1, 1},
	} {
		g, err := newTopologies([]*benchGraph{c.bg}, [][]delta{nil}).get(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := greedyRef(g, c.r); got != c.want {
			t.Errorf("greedyRef(n=%d, r=%d) = %d, want %d", c.bg.N, c.r, got, c.want)
		}
	}
}
