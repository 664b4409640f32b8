package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
)

func TestInputIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, hashA, err := buildInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		_, hashB, err := buildInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		_, hashC, err := buildInputs(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if hashA != hashB {
			t.Errorf("%s: seed 7 hashed %s then %s", w.name, hashA, hashB)
		}
		if hashA == hashC {
			t.Errorf("%s: seeds 7 and 8 share hash %s", w.name, hashA)
		}
		if len(a) != w.streams {
			t.Errorf("%s: %d streams, want %d", w.name, len(a), w.streams)
		}
		for i, in := range a {
			if len(in.exact) != w.cps || in.cps[w.cps-1] != len(in.batches) {
				t.Errorf("%s stream %d: %d checkpoints at %v over %d batches, want %d ending at the last batch", w.name, i, len(in.exact), in.cps, len(in.batches), w.cps)
			}
		}
	}
}

func TestStreamsAreFeasible(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			s := w.gen(rand.New(rand.NewSource(seed)))
			if i := s.Validate(); i >= 0 {
				t.Errorf("%s seed %d: event %d (%v) is infeasible", w.name, seed, i, s[i])
			}
			if ins, del := s.Counts(); ins == 0 || del == 0 {
				t.Errorf("%s seed %d: %d inserts, %d deletes; want both", w.name, seed, ins, del)
			}
		}
	}
}

func smallFleet(partitioned bool) *workload {
	w := &workload{
		name: "test-fleet",
		gen: func(rng *rand.Rand) stream.Stream {
			return stream.LightDeletion(gen.HolmeKim(3000, 4, 0.6, rng), 0.25, rng)
		},
		patterns: []pattern.Kind{pattern.Triangle, pattern.Wedge},
		cps:      4, cpFrom: 0.25, mareBound: 1,
		streams: 1, seeds: 2, workers: 3, workerM: 2000,
		pacedRate: 100000,
	}
	if partitioned {
		w.patterns = w.patterns[:1]
		w.partitioned, w.wal = true, true
	}
	return w
}

// TestFleetRound runs traced rounds of a small broadcast and a small
// partitioned WAL fleet end to end: every event lands, every checkpoint is
// read, and every paced ingest leaves a linked client, coordinator and
// worker span.
func TestFleetRound(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		w := smallFleet(partitioned)
		ins, _, err := buildInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		in := ins[0]
		d := newFleetDriver(w, ins, t.TempDir())
		rd, err := d.round(0, newTracer())
		d.close()
		if err != nil {
			t.Fatalf("partitioned=%v: %v", partitioned, err)
		}
		if len(rd.problems) > 0 {
			t.Errorf("partitioned=%v: %v", partitioned, rd.problems)
		}
		if len(rd.est) != w.cps {
			t.Errorf("partitioned=%v: %d checkpoint reads, want %d", partitioned, len(rd.est), w.cps)
		}
		if _, err := mare(slices.Concat(rd.est...), slices.Concat(in.exact...)); err != nil {
			t.Errorf("partitioned=%v: %v", partitioned, err)
		}
		paced := len(in.batches) - int(closedShare*float64(len(in.batches)))
		b := breakdown(rd.spans, "ingest", w.workers)
		if len(b.clientHop) != paced || len(b.coordSelf) != paced {
			t.Errorf("partitioned=%v: %d client hops and %d coordinator spans for %d paced batches", partitioned, len(b.clientHop), len(b.coordSelf), paced)
		}
		if len(b.workerHop) < paced || len(b.fanout) != paced {
			t.Errorf("partitioned=%v: %d worker hops, %d fan-outs for %d paced batches", partitioned, len(b.workerHop), len(b.fanout), paced)
		}
		if rd.eps <= 0 || rd.setupS[0] <= 0 {
			t.Errorf("partitioned=%v: eps %v, setup %v", partitioned, rd.eps, rd.setupS)
		}
	}
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json and the printed
// metrics in step: same workloads, names and units.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q", i, w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	w := &workload{streams: 1, seeds: 1}
	rd := &round{ingest: paced{latMs: seq(200)}, estMs: seq(200), est: [][]float64{{1}}, setupS: []float64{1}}
	e2e, err := endToEnd(w, []*input{{exact: [][]float64{{1}}}}, []*round{rd})
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, got []metric) {
		if len(listed) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run prints %d", kind, len(listed), len(got))
			return
		}
		for i, m := range got {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the run prints %s [%s]", kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	layers := make([]metric, len(layerNames))
	for i, l := range layerNames {
		layers[i] = metric{name: l.name, unit: l.unit}
	}
	check("per_layer", spec.PerLayer, layers)
}
