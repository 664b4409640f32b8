package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/pattern"
	"repro/internal/stream"
)

// workload is one benchmark input and the system it drives. Everything the
// system under test (SUT) receives is generated from seed before the SUT is
// built.
type workload struct {
	name string
	seed int64 // default; --seed overrides it
	// gen builds the event stream; it must be feasible (deletes only of
	// present edges).
	gen      func(rng *rand.Rand) stream.Stream
	patterns []pattern.Kind // counted patterns, primary first
	window   int64          // sliding window in insertion events; 0 = whole stream
	// Checkpoints: cps evenly spaced stream positions from cpFrom (a share of
	// the stream) to its end, each compared against the exact oracle.
	cps       int
	cpFrom    float64
	mareBound float64 // correctness gate: mare above this fails the run

	// streams is how many independent streams the seed generates; seeds is
	// how many estimator seed sets each stream is replayed under. Rounds
	// cycle through every (stream, seed set) pair, and mare averages over the
	// first full cycle, so it is the same on every run with the same seed;
	// averaging over several graphs keeps it from hinging on one graph's
	// hubs.
	streams int
	seeds   int

	// Embedded workloads: m is the counter's reservoir budget.
	embedded bool
	m        int
	policy   bool // weight edges with the reference WSD-L policy

	// Fleet workloads: workers serve workerM each; the first closedShare of
	// each stream is ingested closed loop, the rest at pacedRate events/s
	// while GETs of /estimate go out at readRate per second.
	workers     int
	workerM     int
	partitioned bool
	wal         bool
	pacedRate   float64
}

const (
	batchEvents = 1024 // events per ProcessBatch call or POST /ingest body
	closedShare = 0.5
	readRate    = 100
)

// workloads are the benchmark's four inputs. Each loads a different set of
// layers; together they give every optimisation one workload that exercises
// it and one that bypasses it.
var workloads = []*workload{
	// embedded-wsdl-4clique is the paper's algorithm as a library user runs
	// it: WSD-L 4-clique counting under the reference policy over a
	// planted-community stream with light deletion, replayed under several
	// estimator seeds in turn. Single-threaded; pattern/reservoir
	// enumeration and policy/nn weight evaluation do nearly all the work,
	// and HTTP, serve, cluster and wal do none.
	{
		name: "embedded-wsdl-4clique", seed: 11,
		gen: func(rng *rand.Rand) stream.Stream {
			return stream.LightDeletion(gen.PlantedPartition(150, 40, 0.5, 0.0004, rng), 0.1, rng)
		},
		patterns: []pattern.Kind{pattern.FourClique},
		cps:      10, cpFrom: 0.5, mareBound: 0.25,
		embedded: true, m: 12000, streams: 4, seeds: 24, policy: true,
	},
	// embedded-window is the WSD-H triangle counter over a sliding window on
	// a clustered power-law churn stream (Holme-Kim edges in random order,
	// 20% deletions): every insertion past the window replays an expiry
	// through the turnstile delete path. The only workload that runs
	// internal/window, and the heaviest load on the delete path. The window
	// is a large share of the stream and checkpoints start once it is full,
	// so every exact count stays far from zero.
	{
		name: "embedded-window", seed: 12,
		gen: func(rng *rand.Rand) stream.Stream {
			return stream.LightDeletion(stream.UAROrder(gen.HolmeKim(20000, 5, 0.6, rng), rng), 0.25, rng)
		},
		patterns: []pattern.Kind{pattern.Triangle},
		window:   50000,
		cps:      10, cpFrom: 0.6, mareBound: 0.25,
		embedded: true, m: 12500, streams: 6, seeds: 16,
	},
	// fleet-broadcast is a coordinator over three broadcast workers, no WAL,
	// counting triangles and wedges at once on a clustered power-law stream
	// with 20% deletions. Enumeration is cheap, so the raw-forwarding
	// broadcast path, the serve handlers, stream decode, the 3x fan-out,
	// core.MultiCounter and the reads do most of the work.
	{
		name: "fleet-broadcast", seed: 13,
		gen: func(rng *rand.Rand) stream.Stream {
			return stream.LightDeletion(gen.HolmeKim(20000, 5, 0.6, rng), 0.25, rng)
		},
		patterns: []pattern.Kind{pattern.Triangle, pattern.Wedge},
		cps:      16, cpFrom: 0.25, mareBound: 0.06,
		workers: 3, workerM: 8192, streams: 8, seeds: 5,
		pacedRate: 220000,
	},
	// fleet-partitioned-wal is a coordinator over three partitioned workers
	// with one write-ahead log per partition, at a third of
	// fleet-broadcast's total budget, counting triangles on a clustered
	// power-law stream with 20% deletions. It runs the decode, route and
	// append path, partition skew, the beta-corrected sum and the WAL, all of
	// which fleet-broadcast bypasses. (Mass-deletion streams are left out:
	// after a mass deletion WSD estimates go negative, which the correctness
	// gate rejects; see README.md.)
	{
		name: "fleet-partitioned-wal", seed: 14,
		gen: func(rng *rand.Rand) stream.Stream {
			return stream.LightDeletion(gen.HolmeKim(20000, 5, 0.6, rng), 0.25, rng)
		},
		patterns: []pattern.Kind{pattern.Triangle},
		cps:      16, cpFrom: 0.25, mareBound: 0.2,
		workers: 3, workerM: 8192 / 3, partitioned: true, wal: true, streams: 8, seeds: 10,
		pacedRate: 500000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is one pre-generated stream, cut into batches and encoded as
// POST /ingest bodies, with the exact counts at every checkpoint.
type input struct {
	events  stream.Stream
	batches [][]stream.Event
	bodies  [][]byte // binary wire format, one per batch
	// cps[i] is the number of batches applied before checkpoint i.
	cps []int
	// exact[i][p] is pattern p's exact count at checkpoint i.
	exact [][]float64
	// delivered[b][i] is the events the first b batches deliver to fleet
	// worker i: every event in broadcast mode, the events with an endpoint in
	// the worker's partition in partitioned mode.
	delivered [][]int64
}

// cycle is how many rounds visit every (stream, seed set) pair once.
func (w *workload) cycle() int { return w.streams * w.seeds }

// slot maps round r to its stream and estimator seed set.
func (w *workload) slot(r int) (stream, seedSet int) {
	return r % w.streams, r / w.streams % w.seeds
}

// buildInputs generates, encodes and counts a workload's streams from seed
// and returns them with the SHA-256 of all encoded bodies.
func buildInputs(w *workload, seed int64) ([]*input, string, error) {
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	ins := make([]*input, w.streams)
	for i := range ins {
		in, err := buildInput(w, w.gen(rng))
		if err != nil {
			return nil, "", fmt.Errorf("%s stream %d: %w", w.name, i, err)
		}
		for _, body := range in.bodies {
			h.Write(body)
		}
		ins[i] = in
	}
	return ins, hex.EncodeToString(h.Sum(nil)), nil
}

// buildInput encodes and counts one stream.
func buildInput(w *workload, events stream.Stream) (*input, error) {
	in := &input{events: events}
	if i := events.Validate(); i >= 0 {
		return nil, fmt.Errorf("generated stream is infeasible at event %d", i)
	}
	for lo := 0; lo < len(events); lo += batchEvents {
		b := events[lo:min(lo+batchEvents, len(events))]
		var buf bytes.Buffer
		bw, err := stream.NewBinaryWriter(&buf)
		if err != nil {
			return nil, err
		}
		if err := bw.WriteBatch(b); err != nil {
			return nil, err
		}
		if err := bw.Flush(); err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
		in.bodies = append(in.bodies, buf.Bytes())
	}

	nb := len(in.batches)
	from := int(w.cpFrom * float64(nb))
	for i := 1; i <= w.cps; i++ {
		in.cps = append(in.cps, from+(nb-from)*i/w.cps)
	}
	var apply func(stream.Event)
	var count func(pattern.Kind) int64
	if w.window > 0 {
		o := exact.NewWindow(w.window, w.patterns...)
		apply, count = o.Apply, o.Count
	} else {
		o := exact.New(w.patterns...)
		apply, count = o.Apply, o.Count
	}
	next := 0
	for bi, b := range in.batches {
		for _, ev := range b {
			apply(ev)
		}
		for next < len(in.cps) && in.cps[next] == bi+1 {
			row := make([]float64, len(w.patterns))
			for p, k := range w.patterns {
				row[p] = float64(count(k))
			}
			in.exact = append(in.exact, row)
			next++
		}
	}
	for i, row := range in.exact {
		for p, c := range row {
			if c <= 0 {
				return nil, fmt.Errorf("exact %s count at checkpoint %d is %v; checkpoints must see a positive count", w.patterns[p], i, c)
			}
		}
	}
	if w.workers > 0 {
		in.delivered = make([][]int64, nb+1)
		in.delivered[0] = make([]int64, w.workers)
		for b := range in.batches {
			in.delivered[b+1] = slices.Clone(in.delivered[b])
			for i, sub := range deliveries(w, in.batches[b]) {
				in.delivered[b+1][i] += int64(len(sub))
			}
		}
	}
	return in, nil
}

// deliveries splits batch b into what the coordinator sends each worker:
// the whole batch to every worker in broadcast mode, the events with an
// endpoint in the worker's partition in partitioned mode.
func deliveries(w *workload, b []stream.Event) [][]stream.Event {
	out := make([][]stream.Event, w.workers)
	for _, ev := range b {
		if !w.partitioned {
			for i := range out {
				out[i] = b
			}
			break
		}
		x, y := partition.Owners(ev.Edge, w.workers)
		out[x] = append(out[x], ev)
		if y != x {
			out[y] = append(out[y], ev)
		}
	}
	return out
}
