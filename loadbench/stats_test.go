package main

import "testing"

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReportsSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailP != 99 || s.Beyond != 10 {
		t.Fatalf("summary %+v: want n=1000 at p99 with 10 beyond", s)
	}
	if s.P50 != 500 || s.Tail != 990 {
		t.Fatalf("p50 %v p99 %v, want 500 and 990", s.P50, s.Tail)
	}
	if tailName(99) != "p99" || tailName(99.9) != "p99.9" || tailName(50) != "p50" {
		t.Fatalf("tail names: %s %s %s", tailName(99), tailName(99.9), tailName(50))
	}
}
