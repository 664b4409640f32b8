package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {1, 1}, {33.3, 34}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p90 of 100 samples leaves exactly 10 beyond it; of 99, only 9.
	if _, err := percentile(seq(100), 90); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples accepted with 9 beyond it")
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples accepted")
	}
}

func TestMareHandComputed(t *testing.T) {
	// |110-100|/100 + |90-100|/100 + |50-100|/100 + |0-4|/4 = 0.1+0.1+0.5+1.
	got, err := mare([]float64{110, 90, 50, 0}, []float64{100, 100, 100, 4})
	if err != nil || math.Abs(got-1.7/4) > 1e-15 {
		t.Fatalf("mare = %v, %v; want %v", got, err, 1.7/4)
	}
	for _, bad := range [][2][]float64{
		{{-1}, {10}},          // negative estimate
		{{math.NaN()}, {10}},  // non-finite estimate
		{{math.Inf(1)}, {10}}, // non-finite estimate
		{{1}, {0}},            // relative error against zero
		{{1, 2}, {1}},         // length mismatch
	} {
		if _, err := mare(bad[0], bad[1]); err == nil {
			t.Errorf("mare(%v, %v) accepted", bad[0], bad[1])
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{20, 40}, {10, 30}, // overlap: [10,40] counts once
		{35, 50},   // extends the run to [10,50]
		{90, 120},  // clipped to [90,100]
		{150, 160}, // outside the parent
	}
	if got := covered(parent, children); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	// A naive sum of child durations would read 20+20+15+30 > 50.
	if got := selfTime(interval{0, 60}, []interval{{0, 60}, {0, 60}}); got != 0 {
		t.Errorf("selfTime with identical children = %d, want 0", got)
	}
}

func TestBreakdownLinksSpansByContainment(t *testing.T) {
	sp := func(k spanKind, worker int, s, e int64) span {
		return span{kind: k, op: "ingest", worker: worker, iv: interval{s, e}}
	}
	spans := []span{
		sp(spanClient, -1, 0, 100),
		sp(spanCoord, -1, 10, 90),
		sp(spanWorkerReq, 0, 20, 60),
		sp(spanWorkerReq, 1, 25, 80),
		sp(spanWorker, 0, 30, 50),
		sp(spanWorker, 1, 30, 70),
	}
	b := breakdown(spans, "ingest", 2)
	want := func(name string, got []float64, v float64) {
		t.Helper()
		if len(got) != 1 || math.Abs(got[0]-v) > 1e-12 {
			t.Errorf("%s = %v, want [%v]", name, got, v)
		}
	}
	want("coordSelf", b.coordSelf, nsMs(80-60))  // [10,90] minus [20,80]
	want("fanout", b.fanout, nsMs(60))           // 20 to 80
	want("skew", b.skew, nsMs(55-40))            // 55 vs 40
	want("clientHop", b.clientHop, nsMs(100-80)) // client minus handler
	if len(b.workerHop) != 2 || b.workerHop[0] != nsMs(20) || b.workerHop[1] != nsMs(15) {
		t.Errorf("workerHop = %v, want [%v %v]", b.workerHop, nsMs(20), nsMs(15))
	}
	// 100 - 20 hop - 20 self - 60 fan-out leaves nothing unattributed.
	want("unattributed", b.unattributed, 0)
}

func TestBlockPercentileIsMedianOfBlocks(t *testing.T) {
	// Five rounds of 50 samples: p90 needs 100 samples, so the blocks are
	// rounds {0,1}, {2,3} and the leftover round 4 is dropped. Block 0 holds
	// a stall (every sample 1000) and does not move the median of the blocks.
	round := func(base float64) []float64 {
		xs := seq(50)
		for i := range xs {
			xs[i] += base
		}
		return xs
	}
	stall := make([]float64, 50)
	for i := range stall {
		stall[i] = 1000
	}
	rounds := [][]float64{stall, stall, round(0), round(0), round(100)}
	got, err := blockPercentile(rounds, 90)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: p90 of {1000 x 100} = 1000, p90 of {1..50, 1..50} = 45;
	// the median of two blocks is their mean.
	if want := (1000.0 + 45) / 2; got != want {
		t.Errorf("blockPercentile = %v, want %v", got, want)
	}
	rounds = [][]float64{stall, stall, round(0), round(0), round(0), round(0), round(100)}
	if got, err = blockPercentile(rounds, 90); err != nil || got != 45 {
		t.Errorf("with a third block: %v, %v; want 45", got, err)
	}
	if _, err := blockPercentile([][]float64{seq(50)}, 90); err == nil {
		t.Error("p90 of one 50-sample round accepted")
	}
}
