package main

import (
	"fmt"
	"runtime"
	"time"

	wsd "repro"

	"repro/internal/policy"
	"repro/internal/stream"
)

// embeddedCounter is what the benchmark calls on a library counter.
type embeddedCounter interface {
	ProcessBatch(evs []stream.Event)
	Estimate() float64
	SampleSize() int
}

// estimateEvery and estimateBlock shape the embedded read samples: after
// every estimateEvery batches, estimateBlock Estimate calls are timed
// together and their mean is one sample (a single call is too short to time
// on its own).
const (
	estimateEvery = 4
	estimateBlock = 256
)

// newEmbedded builds the workload's counter under an estimator seed, as a
// library user would; windowed and policy turn the workload's window and
// policy on or off (the calibration rungs flip them).
func newEmbedded(w *workload, seed int64, windowed, policed bool) (embeddedCounter, error) {
	opts := []wsd.Option{wsd.WithSeed(seed)}
	if windowed && w.window > 0 {
		opts = append(opts, wsd.WithWindow(w.window))
	}
	if policed && w.policy {
		opts = append(opts, wsd.WithPolicy(policy.Reference(w.patterns[0])))
	}
	c, err := wsd.NewCounter(w.patterns[0], w.m, opts...)
	if err != nil {
		return nil, err
	}
	ec, ok := c.(embeddedCounter)
	if !ok {
		return nil, fmt.Errorf("counter %T has no ProcessBatch/SampleSize", c)
	}
	return ec, nil
}

// embeddedRound replays round r's stream into a fresh counter under its
// estimator seed.
func embeddedRound(w *workload, ins []*input, r int) (*round, error) {
	idx, seedSet := w.slot(r)
	in, seed := ins[idx], int64(1+seedSet)
	rd := &round{
		stream: idx,
		ingest: paced{latMs: make([]float64, 0, len(in.batches))},
		estMs:  make([]float64, 0, len(in.batches)/estimateEvery+1),
	}
	heap0 := liveHeap()
	t0 := time.Now()
	c, err := newEmbedded(w, seed, true, true)
	if err != nil {
		return nil, err
	}
	rd.setupS = []float64{time.Since(t0).Seconds()}

	var busy, reading time.Duration
	var sink float64
	next := 0
	m0 := readMem()
	loopStart := time.Now()
	for bi, b := range in.batches {
		t := time.Now()
		c.ProcessBatch(b)
		d := time.Since(t)
		busy += d
		rd.ingest.latMs = append(rd.ingest.latMs, ms(d))
		rd.attempted++
		if (bi+1)%estimateEvery == 0 {
			t := time.Now()
			for range estimateBlock {
				sink += c.Estimate()
			}
			d := time.Since(t)
			reading += d
			rd.estMs = append(rd.estMs, ms(d)/estimateBlock)
			rd.attempted++
		}
		for next < len(in.cps) && in.cps[next] == bi+1 {
			rd.est = append(rd.est, []float64{c.Estimate()})
			next++
		}
	}
	loop := time.Since(loopStart)
	rd.mem = memBetween(m0, readMem())
	rd.busyShare = 1 - float64(busy+reading)/float64(loop)
	if !validEstimate(sink) {
		rd.problems = append(rd.problems, fmt.Sprintf("an Estimate read summed to %v (must be finite and non-negative)", sink))
	}
	rd.events = len(in.events)
	rd.busyNs = float64(busy.Nanoseconds())
	rd.eps = float64(len(in.events)) / busy.Seconds()
	rd.sampleFill = float64(c.SampleSize()) / float64(w.m)
	rd.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
	runtime.KeepAlive(c)
	return rd, nil
}

// replayNs times one replay of the stream into c, in ns per event.
func replayNs(c embeddedCounter, in *input) float64 {
	t := time.Now()
	for _, b := range in.batches {
		c.ProcessBatch(b)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(len(in.events))
}

// taxNs is a calibration rung: the median per-event cost of the workload
// counter minus that of the same counter with one feature off (the policy
// or the window), over interleaved replays.
func taxNs(w *workload, in *input, windowOff, policyOff bool) (float64, error) {
	var with, without []float64
	for i := range 3 {
		seed := int64(1 + i)
		on, err := newEmbedded(w, seed, true, true)
		if err != nil {
			return 0, err
		}
		off, err := newEmbedded(w, seed, !windowOff, !policyOff)
		if err != nil {
			return 0, err
		}
		with = append(with, replayNs(on, in))
		without = append(without, replayNs(off, in))
	}
	return median(with) - median(without), nil
}
