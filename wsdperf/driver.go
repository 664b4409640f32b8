package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// checkProcs refuses to run when GOMAXPROCS exceeds the CPUs: the driver and
// the SUT share the machine, and oversubscription would turn scheduler noise
// into latency.
func checkProcs(gomaxprocs, ncpu int) error {
	if gomaxprocs > ncpu {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to run", gomaxprocs, ncpu)
	}
	return nil
}

// newConnClient returns a client that holds at most one connection per host.
// The driver uses exactly two: one in-order ingester and one reader, so the
// load generator's own cost stays small and position-stamped ingest stays
// one ordered stream.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// pauseGate lets the ingester stop the paced schedules for a checkpoint:
// open-loop requests hold the read side while in flight, a checkpoint holds
// the write side, and every schedule shifts by the pause so no request is
// timed across it.
type pauseGate struct {
	mu    sync.RWMutex
	shift atomic.Int64 // total paused ns
}

// pause runs fn with both schedules stopped and shifts them by its duration.
func (g *pauseGate) pause(fn func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	t0 := time.Now()
	err := fn()
	g.shift.Add(int64(time.Since(t0)))
	return err
}

// openLoop is an absolute send schedule: request k is due at
// start + k*interval + the gate's accumulated pauses, whether or not the
// previous request has returned. With one connection a late reply delays the
// next send; the latency of every request is taken from its due time, so a
// stall shows in every request it holds back (no coordinated omission).
type openLoop struct {
	start    time.Time
	interval time.Duration
	gate     *pauseGate
}

// errRefused, returned by an open-loop send, marks a request that failed or
// was refused: it is counted, charged as infinitely late, and the schedule
// goes on.
var errRefused = errors.New("request failed or refused")

// paced is what an open-loop phase measures. It has no per-event cost: a
// paced phase runs at the offered rate, so its duration says nothing about
// the cost of an event (throughput comes only from closed-loop phases).
type paced struct {
	latMs  []float64 // completion minus due time; +Inf for a failed request
	lagMs  []float64 // actual send minus due time
	failed int
}

// run sends requests k = 0, 1, ... until n are sent (n < 0: until stop is
// closed). send returns when the request has completed; between runs after
// each request outside the gate, where the caller may pause.
func (o *openLoop) run(n int, stop <-chan struct{}, send func(k int) error, between func(k int) error) (paced, error) {
	var p paced
	if n > 0 {
		p.latMs = make([]float64, 0, n)
		p.lagMs = make([]float64, 0, n)
	}
	for k := 0; n < 0 || k < n; k++ {
		due := o.waitDue(k, stop)
		if due.IsZero() {
			break
		}
		sent := time.Now()
		err := send(k)
		done := time.Now()
		o.gate.mu.RUnlock()
		lat := ms(done.Sub(due))
		if errors.Is(err, errRefused) {
			p.failed++
			lat, err = math.Inf(1), nil
		}
		if err != nil {
			return p, err
		}
		p.latMs = append(p.latMs, lat)
		p.lagMs = append(p.lagMs, ms(sent.Sub(due)))
		if between != nil {
			if err := between(k); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

// waitDue sleeps until request k is due and returns its due time holding
// the gate's read lock, or the zero time (lock not held) once stop closes.
func (o *openLoop) waitDue(k int, stop <-chan struct{}) time.Time {
	for {
		due := o.start.Add(time.Duration(k)*o.interval + time.Duration(o.gate.shift.Load()))
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-stop:
				t.Stop()
				return time.Time{}
			case <-t.C:
			}
		}
		select {
		case <-stop:
			return time.Time{}
		default:
		}
		o.gate.mu.RLock()
		// A checkpoint may have run while this request waited: re-read the
		// shift, and wait again when it moved the due time into the future.
		due = o.start.Add(time.Duration(k)*o.interval + time.Duration(o.gate.shift.Load()))
		if !time.Now().Before(due) {
			return due
		}
		o.gate.mu.RUnlock()
	}
}

// memDelta is the runtime's allocation and GC activity over a phase.
type memDelta struct {
	gcs     uint32
	pauseNs uint64
	mallocs uint64
	bytes   uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memBetween(a, b runtime.MemStats) memDelta {
	return memDelta{
		gcs:     b.NumGC - a.NumGC,
		pauseNs: b.PauseTotalNs - a.PauseTotalNs,
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
	}
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	return readMem().HeapAlloc
}
