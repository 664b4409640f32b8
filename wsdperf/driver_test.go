package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCheckProcsRefusesOversubscription(t *testing.T) {
	if err := checkProcs(3, 2); err == nil {
		t.Error("GOMAXPROCS 3 on 2 CPUs accepted")
	}
	if err := checkProcs(2, 2); err != nil {
		t.Errorf("GOMAXPROCS 2 on 2 CPUs refused: %v", err)
	}
}

// TestOpenLoopStallInflatesLaterSamples stalls one request for 50ms on a 5ms
// schedule: the requests queued behind it must be timed from their due times
// and so carry the stall, where timing from the actual send would hide it.
func TestOpenLoopStallInflatesLaterSamples(t *testing.T) {
	const stall = 50 * time.Millisecond
	loop := &openLoop{start: time.Now(), interval: 5 * time.Millisecond, gate: &pauseGate{}}
	p, err := loop.run(12, nil, func(k int) error {
		if k == 2 {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.latMs) != 12 {
		t.Fatalf("%d samples, want 12", len(p.latMs))
	}
	if p.latMs[2] < ms(stall) {
		t.Errorf("stalled request took %.1fms from due, want >= %.0f", p.latMs[2], ms(stall))
	}
	// Request 3 was due 5ms after request 2 but could only go out after the
	// stall: ~45ms late.
	if p.latMs[3] < 35 || p.lagMs[3] < 35 {
		t.Errorf("request after the stall: latency %.1fms, lag %.1fms; want both >= 35ms", p.latMs[3], p.lagMs[3])
	}
	if p.latMs[0] > 20 {
		t.Errorf("unstalled first request took %.1fms", p.latMs[0])
	}
}

// TestPauseShiftsTheSchedule: a checkpoint run through the gate is not
// charged to the requests after it.
func TestPauseShiftsTheSchedule(t *testing.T) {
	gate := &pauseGate{}
	loop := &openLoop{start: time.Now(), interval: 2 * time.Millisecond, gate: gate}
	p, err := loop.run(6, nil, func(int) error { return nil }, func(k int) error {
		if k == 1 {
			return gate.pause(func() error { time.Sleep(40 * time.Millisecond); return nil })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, l := range p.latMs {
		if l > 20 {
			t.Errorf("request %d took %.1fms from due; the pause leaked into it", k, l)
		}
	}
}

// TestConnClientUsesOneConnection pins the driver's resource discipline:
// concurrent requests through one role's client share a single connection.
func TestConnClientUsesOneConnection(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		io.WriteString(w, "{}")
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := newConnClient()
	defer c.CloseIdleConnections()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if n := conns.Load(); n != 1 {
		t.Errorf("8 concurrent requests opened %d connections, want 1", n)
	}
	d := newFleetDriver(&workload{workers: 1}, nil, t.TempDir())
	if d.ingest == d.read || d.ingest.Transport == d.read.Transport {
		t.Error("ingester and reader share a client; each role needs its own connection")
	}
	for _, cl := range []*http.Client{d.ingest, d.read} {
		if tr := cl.Transport.(*http.Transport); tr.MaxConnsPerHost != 1 {
			t.Errorf("MaxConnsPerHost = %d, want 1", tr.MaxConnsPerHost)
		}
	}
}

// TestThroughputComesOnlyFromClosedLoop: the paced phase's timings never
// feed throughput_eps, whatever they read.
func TestThroughputComesOnlyFromClosedLoop(t *testing.T) {
	w := &workload{streams: 1, seeds: 1}
	ins := []*input{{exact: [][]float64{{10}}}}
	mk := func(latMs float64) []*round {
		var rs []*round
		for i := range 3 {
			lat := make([]float64, 60)
			for j := range lat {
				lat[j] = latMs
			}
			rs = append(rs, &round{
				eps:    1000 * float64(i+1),
				ingest: paced{latMs: lat},
				estMs:  lat,
				est:    [][]float64{{11}},
				setupS: []float64{0.5},
			})
		}
		return rs
	}
	fast, err := endToEnd(w, ins, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := endToEnd(w, ins, mk(1000))
	if err != nil {
		t.Fatal(err)
	}
	if fast[0].name != "throughput_eps" || fast[0].value != slow[0].value || fast[0].value != 2500 {
		t.Errorf("throughput_eps %v with fast and %v with slow paced samples, want 2500 both", fast[0], slow[0])
	}
}

// TestRefusedRequestMissesEveryLimit: a failed request is counted and
// charged as infinitely late, and the schedule carries on.
func TestRefusedRequestMissesEveryLimit(t *testing.T) {
	loop := &openLoop{start: time.Now(), interval: time.Millisecond, gate: &pauseGate{}}
	p, err := loop.run(4, nil, func(k int) error {
		if k == 1 {
			return errRefused
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 1 || len(p.latMs) != 4 || !math.IsInf(p.latMs[1], 1) || math.IsInf(p.latMs[2], 1) {
		t.Errorf("failed %d, latencies %v; want 1 failure charged +Inf at request 1", p.failed, p.latMs)
	}
}
