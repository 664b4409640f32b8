// Command wsdperf is the repository benchmark: one seeded workload per run,
// driven through the system's public entry points, printing every metric by
// name and unit and exiting nonzero when an output is wrong.
//
// A run pre-generates the workload's whole stream from --seed, encodes it as
// POST /ingest bodies and computes the exact pattern counts at fixed
// checkpoints before any part of the system under test (SUT) exists. It then
// repeats rounds until --seconds have passed: each round builds a fresh SUT
// (timed as set-up), feeds it the stream, compares its estimates at the
// checkpoints with the exact counts, and tears it down. Embedded workloads
// call the library (wsd.NewCounter, ProcessBatch); fleet workloads run
// workers and a coordinator on loopback listeners in this process and drive
// the coordinator over HTTP with one ingest and one read connection.
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run. See README.md for every metric's definition.
//
// Usage, from the root of the repository:
//
//	bash wsdperf/run.sh --workload fleet-broadcast --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (embedded-wsdl-4clique, embedded-window, fleet-broadcast, fleet-partitioned-wal)")
	seed := flag.Int64("seed", 0, "input seed; 0 uses the workload's own")
	seconds := flag.Float64("seconds", 20, "how long the rounds run")
	traced := flag.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the WAL files of fleet rounds")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "wsdperf: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// round is what one SUT lifetime measured.
type round struct {
	stream      int       // index of the stream the round replayed
	setupS      []float64 // nothing to ready SUT, one per build
	heapMB      float64   // live heap with the SUT up minus before it was built
	eps         float64   // closed-loop events per second
	ingest      paced     // fleets: the paced phase; embedded: per-batch ProcessBatch times
	estMs       []float64
	est         [][]float64 // checkpoint estimates [checkpoint][pattern]
	attempted   int
	failed      int
	problems    []string
	mem         memDelta // over the measured phases
	events      int
	busyNs      float64 // embedded: time inside ProcessBatch
	busyShare   float64 // share of the closed-loop phase the driver spent outside SUT calls
	flushMs     float64 // fleets: the closed-loop phase's final /flush
	positions   []int64 // fleets: each worker's applied position at the end
	walSegments int
	sampleFill  float64
	backlog     []float64 // traced fleets: acked-but-unapplied events, sampled per read
	spans       []span
}

func run(name string, seed int64, seconds float64, traced bool, workdir string) error {
	if err := checkProcs(runtime.GOMAXPROCS(0), runtime.NumCPU()); err != nil {
		return err
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = w.seed
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	ins, hash, err := buildInputs(w, seed)
	if err != nil {
		return err
	}
	events := 0
	for _, in := range ins {
		events += len(in.events)
	}
	fmt.Printf("wsdperf: %s seed %d: %d streams, %d events, %d checkpoints each, input sha256 %s\n",
		w.name, seed, len(ins), events, w.cps, hash)

	var roundFn func(r int, tr *tracer) (*round, error)
	if w.embedded {
		roundFn = func(r int, _ *tracer) (*round, error) { return embeddedRound(w, ins, r) }
	} else {
		d := newFleetDriver(w, ins, workdir)
		defer d.close()
		roundFn = d.round
	}

	var metrics []metric
	var rounds []*round
	if !traced {
		rounds, err = runRounds(seconds, w.cycle(), 0, false, roundFn)
		if err != nil {
			return err
		}
		metrics, err = endToEnd(w, ins, rounds)
	} else {
		var plain, tracedRounds []*round
		if plain, err = runRounds(seconds/2, 2, 0, false, roundFn); err != nil {
			return err
		}
		if tracedRounds, err = runRounds(seconds/2, 2, len(plain), true, roundFn); err != nil {
			return err
		}
		rounds = append(plain, tracedRounds...)
		metrics, err = perLayer(w, ins, plain, tracedRounds, workdir)
	}
	if err != nil {
		return err
	}

	var problems []string
	attempted, failed := 0, 0
	for _, rd := range rounds {
		problems = append(problems, rd.problems...)
		attempted += rd.attempted
		failed += rd.failed
	}
	problems = append(problems, determinism(w, rounds)...)
	if !traced {
		m, err := accuracy(w, ins, rounds)
		if err != nil {
			problems = append(problems, err.Error())
		} else if m > w.mareBound {
			problems = append(problems, fmt.Sprintf("mare %.4f exceeds the workload's bound %.2f", m, w.mareBound))
		}
	}
	fmt.Printf("  rounds %d, requests %d, failed %d, error_rate %.6f\n", len(rounds), attempted, failed, float64(failed)/float64(attempted))
	for _, m := range metrics {
		fmt.Printf("  %-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, p := range problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
	out := map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
	}
	ms := make(map[string]any, len(metrics))
	for _, m := range metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		return fmt.Errorf("%d correctness failure(s)", len(problems))
	}
	return nil
}

// runRounds runs rounds until seconds have passed and at least minRounds
// ran, numbering them from first.
func runRounds(seconds float64, minRounds, first int, traced bool, fn func(int, *tracer) (*round, error)) ([]*round, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rounds []*round
	for r := first; len(rounds) < minRounds || time.Now().Before(deadline); r++ {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		rd, err := fn(r, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, rd)
	}
	return rounds, nil
}

// warm drops the first round, which pays one-time costs (page faults, pool
// growth) no later round does.
func warm(rounds []*round) []*round {
	if len(rounds) > 1 {
		return rounds[1:]
	}
	return rounds
}

func perRound[T any](rounds []*round, f func(*round) T) []T {
	out := make([]T, len(rounds))
	for i, rd := range rounds {
		out[i] = f(rd)
	}
	return out
}

func pooled(rounds []*round, f func(*round) []float64) []float64 {
	var out []float64
	for _, rd := range rounds {
		out = append(out, f(rd)...)
	}
	return out
}

// accuracy is mare over the checkpoints, the counted patterns and the first
// full cycle of rounds (every stream under every estimator seed set).
func accuracy(w *workload, ins []*input, rounds []*round) (float64, error) {
	var est, exact []float64
	for _, rd := range rounds[:min(w.cycle(), len(rounds))] {
		for c, row := range rd.est {
			est = append(est, row...)
			exact = append(exact, ins[rd.stream].exact[c]...)
		}
	}
	return mare(est, exact)
}

// determinism checks that rounds with the same stream and estimator seeds
// produced bit-identical checkpoint estimates.
func determinism(w *workload, rounds []*round) []string {
	period := w.cycle()
	var problems []string
	for r := period; r < len(rounds); r++ {
		a, b := rounds[r-period].est, rounds[r].est
		if !slices.EqualFunc(a, b, func(x, y []float64) bool { return slices.Equal(x, y) }) {
			problems = append(problems, fmt.Sprintf("round %d's checkpoint estimates differ from round %d's under the same seeds", r, r-period))
		}
	}
	return problems
}

func endToEnd(w *workload, ins []*input, rounds []*round) ([]metric, error) {
	hot := warm(rounds)
	ingest := perRound(hot, func(rd *round) []float64 { return rd.ingest.latMs })
	reads := perRound(hot, func(rd *round) []float64 { return rd.estMs })
	out := []metric{{"throughput_eps", "events/s", median(perRound(hot, func(rd *round) float64 { return rd.eps }))}}
	for _, q := range []struct {
		name    string
		samples [][]float64
		p       float64
	}{
		{"ingest_p50_ms", ingest, 50}, {"ingest_p90_ms", ingest, 90},
		{"estimate_p50_ms", reads, 50}, {"estimate_p90_ms", reads, 90},
	} {
		v, err := blockPercentile(q.samples, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		out = append(out, metric{q.name, "ms", v})
	}
	m, err := accuracy(w, ins, rounds)
	if err != nil {
		return nil, err
	}
	return append(out,
		metric{"mare", "ratio", m},
		metric{"setup_s", "s", median(pooled(hot, func(rd *round) []float64 { return rd.setupS }))},
		metric{"sut_heap_mb", "MiB", median(perRound(hot, func(rd *round) float64 { return rd.heapMB }))},
	), nil
}
