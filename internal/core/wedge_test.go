package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// hubStream is a hub-heavy fully dynamic stream: Holme-Kim preferential
// attachment (hubs of sampled degree well above 50 at M = 2500) with a quarter
// of the edges deleted again at random later positions. Wedge sums over hub
// adjacencies add dozens of differently sized contributions per event, so
// they are sensitive to summation order — the property the fold's
// bit-identity checks need in order to mean anything.
func hubStream(t *testing.T) stream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	return stream.LightDeletion(gen.HolmeKim(1500, 4, 0.5, rng), 0.25, rng)
}

// maxSampledDegree replays s through c and reports the largest endpoint
// degree in the sample seen at any event.
func maxSampledDegree(c *Counter, s stream.Stream) int {
	best := 0
	for _, ev := range s {
		best = max(best, c.res.Degree(ev.Edge.U), c.res.Degree(ev.Edge.V))
		c.Process(ev)
	}
	return best
}

// TestWedgeFoldMultiMatchesSingleOnHubs: Counter and MultiCounter share one
// wedge fold, so a wedge-primary MultiCounter must track a wedge Counter bit
// for bit at every event on a stream where the wedge sums are
// order-sensitive. A fold on one side only (or a sort, or a different
// per-edge factor) shows up here as a last-ULP divergence.
func TestWedgeFoldMultiMatchesSingleOnHubs(t *testing.T) {
	s := hubStream(t)
	const m = 2500
	probe, err := New(Config{M: m, Pattern: pattern.Wedge, Weight: weights.GPSDefault(), Rng: xrand.New(3), SkipTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxSampledDegree(probe, s); d < 50 {
		t.Fatalf("stream is not hub-heavy: max sampled degree %d, want >= 50", d)
	}
	for _, skip := range []bool{true, false} {
		single, err := New(Config{M: m, Pattern: pattern.Wedge, Weight: weights.GPSDefault(), Rng: xrand.New(3), SkipTemporal: skip})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := NewMulti(MultiConfig{
			M: m, Patterns: []pattern.Kind{pattern.Wedge, pattern.Triangle, pattern.FourClique},
			Weight: weights.GPSDefault(), Rng: xrand.New(3), SkipTemporal: skip,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range s {
			single.Process(ev)
			multi.Process(ev)
			if single.Estimate() != multi.Estimate() {
				t.Fatalf("skipTemporal=%v event %d: single %v, multi %v", skip, i, single.Estimate(), multi.Estimate())
			}
			if ev.Op == stream.Insert && !skip {
				st, mt := single.LastState().Temporal, multi.LastState().Temporal
				if st[0] != mt[0] || st[1] != mt[1] {
					t.Fatalf("event %d: temporal features single %v, multi %v", i, st, mt)
				}
			}
		}
	}
}

// TestWedgeFoldMatchesCompleter is the fold's differential check against the
// generic route it replaced: before every event of a hub-heavy stream, the
// fold's sum must match the Completer enumeration's sorted sum of
// max(1, tau_q/w) within 1e-12 relative, with exactly the same instance count
// and temporal aggregates. The stream covers insertions, deletions of sampled
// edges (the event edge is in the adjacency and must be skipped) and
// deletions of unsampled ones.
func TestWedgeFoldMatchesCompleter(t *testing.T) {
	s := hubStream(t)
	c, err := New(Config{M: 800, Pattern: pattern.Wedge, Weight: weights.GPSDefault(), Rng: xrand.New(8), SkipTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	comp := pattern.NewCompleter(pattern.Wedge)
	var prods []float64
	var genN int
	var genMax, genSum float64
	visit := func(_ []graph.Edge, payloads []any) bool {
		it := c.payloadItem(payloads[0], graph.Edge{})
		prod := 1.0
		if x := c.tauQ / it.Weight; x > 1 {
			prod = x
		}
		prods = append(prods, prod)
		genN++
		a := float64(it.Arrival)
		genMax = max(genMax, a)
		genSum += a
		return true
	}
	var inserts, sampledDeletes, unsampledDeletes, orderSensitive int
	temporal, count := make([]float64, 2), make([]int64, 2)
	for i, ev := range s {
		e := ev.Edge
		switch _, sampled := c.res.Get(e); {
		case ev.Op == stream.Insert:
			inserts++
		case sampled:
			sampledDeletes++
		default:
			unsampledDeletes++
		}
		prods, genN, genMax, genSum = prods[:0], 0, 0, 0
		comp.ForEach(c.res, e.U, e.V, visit)
		want := sumSorted(prods)
		for _, agg := range []TemporalAgg{AggMax, AggAvg} {
			temporal[0], count[0] = 0, 0
			got, n := foldWedges(c.res, e, c.tauQ, agg, temporal, count)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("event %d (%v): fold sum %v, completer sum %v", i, ev.Op, got, want)
			}
			if n != genN || count[0] != int64(genN) {
				t.Fatalf("event %d: fold counted %d instances (temporal count %d), completer %d", i, n, count[0], genN)
			}
			wantT := genMax
			if agg == AggAvg {
				wantT = genSum
			}
			if temporal[0] != wantT {
				t.Fatalf("event %d agg %d: fold temporal %v, completer %v", i, agg, temporal[0], wantT)
			}
		}
		if got, _ := foldWedges(c.res, e, c.tauQ, AggMax, nil, nil); got != want {
			orderSensitive++
		}
		c.Process(ev)
	}
	t.Logf("%d inserts, %d sampled deletes, %d unsampled deletes, %d events where fold and sorted sums differ in the last ULP",
		inserts, sampledDeletes, unsampledDeletes, orderSensitive)
	if inserts == 0 || sampledDeletes == 0 || unsampledDeletes == 0 {
		t.Fatal("stream does not cover every event kind")
	}
	if orderSensitive == 0 {
		t.Fatal("fold and sorted sums never differed; the stream cannot tell them apart")
	}
}
