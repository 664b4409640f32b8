package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/wal"
)

// fleet is one in-process deployment: workers and a coordinator on loopback
// listeners, as `wsdload -fleet` runs them, plus per-partition WALs.
type fleet struct {
	url       string
	workers   []*serve.Server
	healthz   []http.Handler // unwrapped worker handlers, for in-process probes
	servers   []*http.Server
	serving   sync.WaitGroup
	logs      []*wal.Log
	walDir    string
	transport *http.Transport
	stopped   bool
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return ln.Addr().String(), nil
}

// startFleet builds the workload's fleet and returns once the coordinator's
// /healthz reports the whole fleet serving.
func startFleet(w *workload, seedBase int64, workdir string, tr *tracer, probe *http.Client) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()
	hosts := make(map[string]int, w.workers)
	urls := make([]string, w.workers)
	for i := range w.workers {
		cfg := serve.Config{M: w.workerM, Options: []wsd.Option{wsd.WithSeed(seedBase + int64(i))}}
		if len(w.patterns) > 1 {
			cfg.Patterns = w.patterns
		} else {
			cfg.Pattern = w.patterns[0]
		}
		if w.partitioned {
			cfg.PartitionCount, cfg.PartitionIndex = w.workers, i
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return f, err
		}
		f.workers = append(f.workers, srv)
		h := srv.Handler()
		f.healthz = append(f.healthz, h)
		host, err := f.listen(tr.handler(i, h))
		if err != nil {
			return f, err
		}
		hosts[host], urls[i] = i, "http://"+host
	}
	if w.wal {
		if f.walDir, err = os.MkdirTemp(workdir, "wal-"); err != nil {
			return f, err
		}
		for i := range w.workers {
			lg, err := wal.Open(filepath.Join(f.walDir, fmt.Sprint(i)), wal.Options{})
			if err != nil {
				return f, err
			}
			f.logs = append(f.logs, lg)
		}
	}
	// The coordinator's client is the one it builds by default (a 10s
	// timeout over the default transport's settings), on its own transport
	// so each fleet starts without pooled connections.
	f.transport = http.DefaultTransport.(*http.Transport).Clone()
	coord, err := serve.NewCoordinator(serve.CoordinatorConfig{Cluster: cluster.Config{
		Workers:     urls,
		Partitioned: w.partitioned,
		Logs:        f.logs,
		Client:      &http.Client{Timeout: 10 * time.Second, Transport: tr.transport(f.transport, hosts)},
	}})
	if err != nil {
		return f, err
	}
	host, err := f.listen(tr.handler(-1, coord.Handler()))
	if err != nil {
		return f, err
	}
	f.url = "http://" + host
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h cluster.Health
		code, err := getJSON(probe, f.url+"/healthz", &h)
		if err == nil && code == http.StatusOK && h.Serving == w.workers {
			return f, nil
		}
		if time.Now().After(deadline) {
			return f, fmt.Errorf("fleet not healthy after 10s (status %d, err %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts every server down, waits for their serve loops and removes the
// WALs.
func (f *fleet) stop() error {
	if f.stopped {
		return nil
	}
	f.stopped = true
	var errs []error
	for _, s := range f.servers {
		errs = append(errs, s.Close())
	}
	f.serving.Wait()
	for _, w := range f.workers {
		w.Close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, lg := range f.logs {
		errs = append(errs, lg.Close())
	}
	if f.walDir != "" {
		errs = append(errs, os.RemoveAll(f.walDir))
	}
	return errors.Join(errs...)
}

// positions reads every worker's applied stream position in-process (no
// connection is used).
func (f *fleet) positions() ([]int64, error) {
	out := make([]int64, len(f.healthz))
	for i, h := range f.healthz {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var reply struct {
			Processed int64 `json:"processed"`
		}
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("worker %d /healthz: %d", i, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			return nil, fmt.Errorf("worker %d /healthz: %w", i, err)
		}
		out[i] = reply.Processed
	}
	return out, nil
}

func getJSON(c *http.Client, url string, out any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d: %s", url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

func validEstimate(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// setupReps is how many fleets each round builds to time set-up.
const setupReps = 5

// fleetDriver runs rounds against fresh fleets with two connections: the
// in-order ingester and the reader.
type fleetDriver struct {
	w       *workload
	ins     []*input
	workdir string
	ingest  *http.Client
	read    *http.Client
}

func newFleetDriver(w *workload, ins []*input, workdir string) *fleetDriver {
	return &fleetDriver{w: w, ins: ins, workdir: workdir, ingest: newConnClient(), read: newConnClient()}
}

func (d *fleetDriver) close() {
	d.ingest.CloseIdleConnections()
	d.read.CloseIdleConnections()
}

// post sends batch b of in to the coordinator and checks the
// acknowledgement covers the whole batch on every worker.
func (d *fleetDriver) post(f *fleet, in *input, b int, tr *tracer) error {
	var reply cluster.IngestResult
	start := tr.now()
	err := postJSON(d.ingest, f.url+"/ingest", in.bodies[b], &reply)
	if tr != nil {
		tr.record(spanClient, "ingest", -1, start, tr.now())
	}
	if err != nil {
		return err
	}
	if reply.Accepted != len(in.batches[b]) || reply.Applied != d.w.workers {
		return fmt.Errorf("batch %d: accepted %d of %d events on %d of %d workers", b, reply.Accepted, len(in.batches[b]), reply.Applied, d.w.workers)
	}
	return nil
}

// checkpoint flushes the fleet and reads every counted pattern.
func (d *fleetDriver) checkpoint(f *fleet) ([]float64, error) {
	var flushed struct {
		Flushed bool `json:"flushed"`
	}
	if err := postJSON(d.ingest, f.url+"/flush", nil, &flushed); err != nil {
		return nil, fmt.Errorf("checkpoint flush failed: %w", err)
	}
	if !flushed.Flushed {
		return nil, fmt.Errorf("checkpoint flush not acknowledged")
	}
	var est cluster.Estimate
	if _, err := getJSON(d.ingest, f.url+"/estimate", &est); err != nil {
		return nil, fmt.Errorf("checkpoint read failed: %w", err)
	}
	if est.Degraded {
		return nil, fmt.Errorf("checkpoint read degraded: %d of %d workers", est.Gathered, est.Workers)
	}
	row := make([]float64, len(d.w.patterns))
	for p, k := range d.w.patterns {
		v, ok := est.Estimates[k.String()]
		if !ok {
			return nil, fmt.Errorf("checkpoint read has no %s estimate", k)
		}
		row[p] = v
	}
	return row, nil
}

// round runs one fleet from nothing: set-up, the closed-loop capacity phase
// over the first closedShare of the stream, the paced phase over the rest with
// open-loop reads, and the final position check, on round r's stream with
// its estimator seed set.
func (d *fleetDriver) round(r int, tr *tracer) (*round, error) {
	w := d.w
	idx, seedSet := w.slot(r)
	in := d.ins[idx]
	nb := len(in.batches)
	capEnd := int(closedShare * float64(nb))
	pacedN := nb - capEnd
	interval := time.Duration(batchEvents / w.pacedRate * float64(time.Second))
	readInterval := time.Second / readRate
	rd := &round{
		stream: idx,
		ingest: paced{latMs: make([]float64, 0, pacedN), lagMs: make([]float64, 0, pacedN)},
		estMs:  make([]float64, 0, 4096),
	}
	// Set-up is short next to the machine's noise, so every round times
	// setupReps builds and keeps the last; the first setupReps-1 are torn
	// down untouched.
	seedBase := 1 + int64(seedSet*w.workers)
	var f *fleet
	for i := range setupReps {
		var heap0 uint64
		if i == setupReps-1 {
			heap0 = liveHeap()
			rd.heapMB = -float64(heap0) / (1 << 20)
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(w, seedBase, d.workdir, tr, d.ingest); err != nil {
			return nil, err
		}
		rd.setupS = append(rd.setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
			d.ingest.CloseIdleConnections()
		}
	}
	defer f.stop()

	nextCP := 0
	checkpoint := func(applied int) error {
		for nextCP < len(in.cps) && in.cps[nextCP] == applied {
			row, err := d.checkpoint(f)
			if err != nil {
				return err
			}
			rd.est = append(rd.est, row)
			rd.attempted += 2
			nextCP++
		}
		return nil
	}

	// Capacity phase: closed loop, ended by /flush; checkpoint time is
	// excluded from the phase.
	m0 := readMem()
	var paused, rtt time.Duration
	capStart := time.Now()
	for b := range capEnd {
		t := time.Now()
		if err := d.post(f, in, b, nil); err != nil {
			return nil, fmt.Errorf("capacity phase: %w", err)
		}
		rtt += time.Since(t)
		rd.attempted++
		tc := time.Now()
		if err := checkpoint(b + 1); err != nil {
			return nil, err
		}
		paused += time.Since(tc)
	}
	tf := time.Now()
	var flushed struct {
		Flushed bool `json:"flushed"`
	}
	if err := postJSON(d.ingest, f.url+"/flush", nil, &flushed); err != nil {
		return nil, fmt.Errorf("capacity phase flush: %w", err)
	}
	rd.flushMs = ms(time.Since(tf))
	rd.attempted++
	capWall := time.Since(capStart) - paused
	rd.eps = float64(eventsIn(in, 0, capEnd)) / capWall.Seconds()
	rd.busyShare = 1 - float64(rtt+time.Since(tf))/float64(capWall)

	// Paced phase: the ingester on its absolute schedule, the reader open
	// loop on the second connection; checkpoints pause both.
	gate := &pauseGate{}
	start := time.Now().Add(interval)
	stopReads := make(chan struct{})
	var acked atomic.Int64
	acked.Store(int64(capEnd))
	var reads paced
	var readErr error
	var backlog []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop := &openLoop{start: start, interval: readInterval, gate: gate}
		reads, readErr = loop.run(-1, stopReads, func(k int) error {
			p := w.patterns[k%len(w.patterns)]
			start := tr.now()
			var est struct {
				Estimate float64 `json:"estimate"`
			}
			_, err := getJSON(d.read, f.url+"/estimate?pattern="+p.String(), &est)
			if tr != nil {
				tr.record(spanClient, "estimate", -1, start, tr.now())
			}
			if err != nil {
				return errRefused
			}
			if !validEstimate(est.Estimate) {
				return fmt.Errorf("read %d returned estimate %v", k, est.Estimate)
			}
			return nil
		}, func(int) error {
			if tr == nil {
				return nil
			}
			// Backlog: what the coordinator has acked minus what each
			// worker has applied, read in-process after the acked count.
			pos, err := f.positions()
			if err != nil {
				return err
			}
			ref := in.delivered[acked.Load()]
			var lag int64
			for i, p := range pos {
				lag = max(lag, ref[i]-p)
			}
			backlog = append(backlog, float64(lag))
			return nil
		})
	}()
	if tr != nil {
		tr.on.Store(true)
	}
	loop := &openLoop{start: start, interval: interval, gate: gate}
	ing, ingErr := loop.run(pacedN, nil, func(k int) error {
		return d.post(f, in, capEnd+k, tr)
	}, func(k int) error {
		acked.Store(int64(capEnd + k + 1))
		if nextCP == len(in.cps) || in.cps[nextCP] != capEnd+k+1 {
			return nil
		}
		return gate.pause(func() error {
			if tr != nil {
				tr.on.Store(false)
				defer tr.on.Store(true)
			}
			return checkpoint(capEnd + k + 1)
		})
	})
	if tr != nil {
		tr.on.Store(false)
	}
	close(stopReads)
	wg.Wait()
	rd.mem = memBetween(m0, readMem())
	rd.events = len(in.events)
	if ingErr != nil {
		return nil, fmt.Errorf("paced phase: %w", ingErr)
	}
	if readErr != nil {
		return nil, fmt.Errorf("paced reads: %w", readErr)
	}
	rd.ingest = ing
	rd.attempted += len(ing.latMs)
	rd.estMs = reads.latMs
	rd.backlog = backlog
	rd.attempted += len(reads.latMs)
	rd.failed += reads.failed
	if nextCP != len(in.cps) {
		return nil, fmt.Errorf("took %d of %d checkpoints", nextCP, len(in.cps))
	}

	pos, err := f.positions()
	if err != nil {
		return nil, err
	}
	rd.positions = pos
	for i, p := range rd.positions {
		if want := in.delivered[nb][i]; p != want {
			rd.problems = append(rd.problems, fmt.Sprintf("worker %d applied %d events; the stream routes %d to it", i, p, want))
		}
	}
	for _, lg := range f.logs {
		rd.walSegments += lg.Segments()
	}
	if tr != nil {
		rd.spans = tr.take()
	}
	rd.heapMB += float64(liveHeap()) / (1 << 20)
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("fleet shutdown: %w", err)
	}
	return rd, nil
}

// eventsIn counts the events in batches [lo, hi).
func eventsIn(in *input, lo, hi int) int {
	n := 0
	for _, b := range in.batches[lo:hi] {
		n += len(b)
	}
	return n
}
