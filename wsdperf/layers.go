package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	wsd "repro"

	"repro/internal/stream"
	"repro/internal/wal"
)

// layerNames lists the per-layer metrics in report order with their units;
// every traced run reports all of them, 0 where a layer does no work in the
// workload (no WAL on fleet-broadcast, no HTTP on the embedded workloads).
var layerNames = []struct{ name, unit string }{
	{"core.busy_ns_per_event", "ns"},
	{"core.allocs_per_event", "count"},
	{"core.bytes_per_event", "bytes"},
	{"core.sample_fill", "ratio"},
	{"policy.tax_ns_per_event", "ns"},
	{"window.tax_ns_per_event", "ns"},
	{"stream.decode_ns_per_event", "ns"},
	{"serve.coord_ingest_self_ms.p50", "ms"},
	{"serve.coord_ingest_self_ms.p90", "ms"},
	{"serve.worker_ingest_ms.p50", "ms"},
	{"serve.worker_ingest_ms.p90", "ms"},
	{"serve.coord_estimate_self_ms.p50", "ms"},
	{"serve.worker_estimate_ms.p50", "ms"},
	{"cluster.fanout_ms.p50", "ms"},
	{"cluster.fanout_ms.p90", "ms"},
	{"cluster.fanout_skew_ms.p90", "ms"},
	{"cluster.deliveries_per_event", "ratio"},
	{"cluster.estimate_fanout_ms.p50", "ms"},
	{"http.worker_hop_ms.p50", "ms"},
	{"http.client_hop_ms.p50", "ms"},
	{"shard.flush_ms", "ms"},
	{"shard.backlog_events.p90", "events"},
	{"partition.delivery_skew", "ratio"},
	{"wal.append_ns_per_event", "ns"},
	{"wal.bytes_per_event", "bytes"},
	{"wal.segments", "count"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.bytes_per_event", "bytes"},
	{"driver.lag_ms.p90", "ms"},
	{"driver.lag_ms.max", "ms"},
	{"driver.busy_share", "ratio"},
	{"client.ingest_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// layerSet collects per-layer values by name and the first refusal.
type layerSet struct {
	vals map[string]float64
	err  error
}

func (l *layerSet) set(name string, v float64) { l.vals[name] = v }

// pct sets name to the p-th percentile of xs, keeping the first refusal.
func (l *layerSet) pct(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	l.vals[name] = v
}

// perLayer derives the per-layer metrics: untraced rounds give the runtime
// and harness figures and the baseline for trace.overhead, traced rounds the
// span figures, and calibration calls the per-event costs of single layers.
func perLayer(w *workload, ins []*input, plain, traced []*round, workdir string) ([]metric, error) {
	l := &layerSet{vals: map[string]float64{}}
	in := ins[0] // calibration rungs replay the first stream
	hotPlain := warm(plain)
	eps := func(rs []*round) float64 { return median(perRound(rs, func(rd *round) float64 { return rd.eps })) }
	l.set("trace.overhead", eps(traced)/eps(hotPlain)-1)

	var events, gcs, pauseNs, mallocs, allocBytes float64
	for _, rd := range hotPlain {
		events += float64(rd.events)
		gcs += float64(rd.mem.gcs)
		pauseNs += float64(rd.mem.pauseNs)
		mallocs += float64(rd.mem.mallocs)
		allocBytes += float64(rd.mem.bytes)
	}
	n := float64(len(hotPlain))
	l.set("runtime.gc_count", gcs/n)
	l.set("runtime.gc_pause_total_ms", pauseNs/n/1e6)
	l.set("runtime.allocs_per_event", mallocs/events)
	l.set("runtime.bytes_per_event", allocBytes/events)
	l.set("driver.busy_share", median(perRound(hotPlain, func(rd *round) float64 { return rd.busyShare })))
	// The p99 tail needs 1000 samples; both halves of the run supply them.
	l.pct("client.ingest_p99_ms", pooled(append(slices.Clone(hotPlain), traced...), func(rd *round) []float64 { return rd.ingest.latMs }), 99)

	if w.embedded {
		var busy, evs float64
		for _, rd := range traced {
			busy += rd.busyNs
			evs += float64(rd.events)
		}
		l.set("core.busy_ns_per_event", busy/evs)
		l.set("core.allocs_per_event", mallocs/events)
		l.set("core.bytes_per_event", allocBytes/events)
		l.set("core.sample_fill", median(perRound(traced, func(rd *round) float64 { return rd.sampleFill })))
		if w.policy {
			v, err := taxNs(w, in, false, true)
			if err != nil {
				return nil, err
			}
			l.set("policy.tax_ns_per_event", v)
		}
		if w.window > 0 {
			v, err := taxNs(w, in, true, false)
			if err != nil {
				return nil, err
			}
			l.set("window.tax_ns_per_event", v)
		}
	} else {
		if err := fleetLayers(l, w, ins, plain, traced, workdir); err != nil {
			return nil, err
		}
	}
	// The decode and WAL rungs run on every workload: on those that bypass
	// the layer they predict no change.
	l.set("stream.decode_ns_per_event", decodeNs(in))
	ns, bytesPer, err := walCalibration(w, in, workdir)
	if err != nil {
		return nil, err
	}
	l.set("wal.append_ns_per_event", ns)
	l.set("wal.bytes_per_event", bytesPer)
	if l.err != nil {
		return nil, l.err
	}
	out := make([]metric, len(layerNames))
	for i, ln := range layerNames {
		out[i] = metric{ln.name, ln.unit, l.vals[ln.name]}
	}
	return out, nil
}

func fleetLayers(l *layerSet, w *workload, ins []*input, plain, traced []*round, workdir string) error {
	hotPlain := warm(plain)
	lags := pooled(hotPlain, func(rd *round) []float64 { return rd.ingest.lagMs })
	l.pct("driver.lag_ms.p90", lags, 90)
	l.set("driver.lag_ms.max", slices.Max(lags))
	l.set("shard.flush_ms", median(perRound(traced, func(rd *round) float64 { return rd.flushMs })))
	l.pct("shard.backlog_events.p90", pooled(traced, func(rd *round) []float64 { return rd.backlog }), 90)
	l.set("wal.segments", median(perRound(traced, func(rd *round) float64 { return float64(rd.walSegments) })))

	pos := traced[0].positions
	var sum, most float64
	for _, p := range pos {
		sum += float64(p)
		most = max(most, float64(p))
	}
	l.set("cluster.deliveries_per_event", sum/float64(len(ins[traced[0].stream].events)))
	l.set("partition.delivery_skew", most/(sum/float64(len(pos))))

	// Each round's spans are on its own clock, so link them per round.
	var ing, est opBreakdown
	for _, rd := range traced {
		ing.add(breakdown(rd.spans, "ingest", w.workers))
		est.add(breakdown(rd.spans, "estimate", w.workers))
	}
	l.pct("serve.coord_ingest_self_ms.p50", ing.coordSelf, 50)
	l.pct("serve.coord_ingest_self_ms.p90", ing.coordSelf, 90)
	l.pct("serve.worker_ingest_ms.p50", ing.worker, 50)
	l.pct("serve.worker_ingest_ms.p90", ing.worker, 90)
	l.pct("serve.coord_estimate_self_ms.p50", est.coordSelf, 50)
	l.pct("serve.worker_estimate_ms.p50", est.worker, 50)
	l.pct("cluster.fanout_ms.p50", ing.fanout, 50)
	l.pct("cluster.fanout_ms.p90", ing.fanout, 90)
	l.pct("cluster.fanout_skew_ms.p90", ing.skew, 90)
	l.pct("cluster.estimate_fanout_ms.p50", est.fanout, 50)
	l.pct("http.worker_hop_ms.p50", ing.workerHop, 50)
	l.pct("http.client_hop_ms.p50", ing.clientHop, 50)
	l.set("trace.unattributed_share", median(ing.unattributed))

	in := ins[0] // calibration rungs replay the first stream
	core, err := coreCalibration(w, in)
	if err != nil {
		return err
	}
	l.set("core.busy_ns_per_event", core.ns)
	l.set("core.allocs_per_event", core.allocs)
	l.set("core.bytes_per_event", core.bytes)
	l.set("core.sample_fill", core.fill)
	return nil
}

// decodeNs is a calibration rung: the median over three passes of decoding
// the workload's own encoded bodies, per event.
func decodeNs(in *input) float64 {
	var passes []float64
	var buf []stream.Event
	for range 3 {
		t := time.Now()
		for _, body := range in.bodies {
			br, err := stream.NewBinaryReader(bytes.NewReader(body))
			if err != nil {
				panic(err) // the bodies were encoded by buildInput
			}
			for {
				buf, err = br.ReadBatchAppend(buf[:0])
				if err == io.EOF {
					break
				}
				if err != nil {
					panic(err)
				}
			}
		}
		passes = append(passes, float64(time.Since(t).Nanoseconds())/float64(len(in.events)))
	}
	return median(passes)
}

// substreams is every worker's sequence of deliveries over the stream.
func substreams(w *workload, in *input) [][][]stream.Event {
	out := make([][][]stream.Event, w.workers)
	for _, b := range in.batches {
		for i, sub := range deliveries(w, b) {
			if len(sub) > 0 {
				out[i] = append(out[i], sub)
			}
		}
	}
	return out
}

type coreCost struct{ ns, allocs, bytes, fill float64 }

// coreCalibration replays each worker's deliveries into the counter that
// worker runs, in-process and without HTTP, giving the fleet's core cost
// per delivered event.
func coreCalibration(w *workload, in *input) (coreCost, error) {
	subs := substreams(w, in)
	var c coreCost
	var busy time.Duration
	var delivered int
	m0 := readMem()
	for i, sub := range subs {
		opts := []wsd.Option{wsd.WithSeed(int64(i + 1))}
		if w.partitioned {
			opts = append(opts, wsd.WithPartition(i, w.workers))
		}
		ctr, err := wsd.NewMultiCounter(w.patterns, w.workerM, opts...)
		if err != nil {
			return c, err
		}
		t := time.Now()
		for _, b := range sub {
			ctr.ProcessBatch(b)
			delivered += len(b)
		}
		busy += time.Since(t)
		c.fill += float64(ctr.SampleSize()) / float64(w.workerM) / float64(len(subs))
	}
	m := memBetween(m0, readMem())
	c.ns = float64(busy.Nanoseconds()) / float64(delivered)
	c.allocs = float64(m.mallocs) / float64(delivered)
	c.bytes = float64(m.bytes) / float64(delivered)
	return c, nil
}

// walCalibration appends the stream to fresh logs in a temporary directory,
// as the coordinator would log it (one log per partition in partitioned
// mode, one log of whole batches otherwise), returning the append cost and
// the bytes on disk per logged event.
func walCalibration(w *workload, in *input, workdir string) (float64, float64, error) {
	logs := [][][]stream.Event{in.batches}
	if w.partitioned {
		logs = substreams(w, in)
	}
	dir, err := os.MkdirTemp(workdir, "walcal-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	var busy time.Duration
	var events int64
	for i, sub := range logs {
		lg, err := wal.Open(filepath.Join(dir, fmt.Sprint(i)), wal.Options{})
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		for _, b := range sub {
			if _, err := lg.Append(b); err != nil {
				lg.Close()
				return 0, 0, err
			}
		}
		busy += time.Since(t)
		events += lg.Events()
		if err := lg.Close(); err != nil {
			return 0, 0, err
		}
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			size += fi.Size()
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(busy.Nanoseconds()) / float64(events), float64(size) / float64(events), nil
}
