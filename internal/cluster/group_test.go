// Routing-group suite: broadcast (one group holding every worker) and
// partitioned (one group per worker) fleets, each with and without
// write-ahead logs, run one ingest path. These tests pin what that path does
// the same way in all four modes, and the parent-format cluster blobs under
// testdata/ pin the wire shapes it must keep reading and writing.
package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
)

// freshLogs opens n empty write-ahead logs (nil for n == 0).
func freshLogs(t *testing.T, n int) []*wal.Log {
	t.Helper()
	var logs []*wal.Log
	for range n {
		lg, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lg.Close() })
		logs = append(logs, lg)
	}
	return logs
}

// faultTransport counts every worker request and, once armed, spoils the
// /ingest deliveries to one worker: "fail" loses the request in transit,
// "short" answers 200 for one event without forwarding the body.
type faultTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
	mu       sync.Mutex
	target   string
	mode     string
}

func (f *faultTransport) arm(host, mode string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.target, f.mode = host, mode
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.requests.Add(1)
	f.mu.Lock()
	spoil := f.mode != "" && req.URL.Path == "/ingest" && req.URL.Host == f.target
	mode := f.mode
	f.mu.Unlock()
	if !spoil {
		return f.base.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	if mode == "fail" {
		return nil, errors.New("injected: delivery lost in transit")
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"accepted":1,"duplicate":0}`)),
		Request:    req,
	}, nil
}

// TestRoutingGroupIngestModes runs the same faults through every fleet shape
// with and without logs. A bad body is refused before any worker request. A
// failed delivery marks its worker lagging when the group has a log (and
// catch-up heals it) and inconsistent when not. A reply covering less than
// the worker's share is a failed delivery too, in broadcast as in
// partitioned mode.
func TestRoutingGroupIngestModes(t *testing.T) {
	s := testStream(t, 53, 200)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{71, 72, 73}
	modes := []struct {
		name        string
		partitioned bool
		logs        int
	}{
		{"broadcast", false, 0},
		{"broadcast+log", false, 1},
		{"partitioned", true, 0},
		{"partitioned+logs", true, 3},
	}
	for _, m := range modes {
		for _, fault := range []string{"fail", "short"} {
			t.Run(m.name+"/"+fault, func(t *testing.T) {
				fleet := testFleet
				if m.partitioned {
					fleet = partitionedFleet
				}
				urls, _ := fleet(t, budgets, seeds)
				ft := &faultTransport{base: http.DefaultTransport}
				coord, err := cluster.New(cluster.Config{Workers: urls, Partitioned: m.partitioned,
					Logs: freshLogs(t, m.logs), Client: &http.Client{Transport: ft}})
				if err != nil {
					t.Fatal(err)
				}
				feed(t, coord, s[:len(s)/2])

				before := ft.requests.Load()
				if _, err := coord.IngestBytes([]byte("not a stream\n")); !errors.Is(err, cluster.ErrBadStream) {
					t.Fatalf("bad body: err = %v, want ErrBadStream", err)
				}
				if n := ft.requests.Load() - before; n != 0 {
					t.Fatalf("bad body cost %d worker requests, want 0", n)
				}

				ft.arm(strings.TrimPrefix(urls[1], "http://"), fault)
				err = coord.SubmitBatch(s[len(s)/2:])
				// A partitioned fleet's quorum is the whole fleet; a broadcast
				// fleet's majority survives one failed delivery.
				if m.partitioned != errors.Is(err, cluster.ErrNoQuorum) {
					t.Fatalf("submit with one spoiled delivery: err = %v", err)
				}
				ft.arm("", "")
				wh := coord.Health().WorkersDetail[1]
				if m.logs == 0 {
					if wh.Consistent || wh.Lagging {
						t.Fatalf("no log: failed worker %+v, want inconsistent", wh)
					}
					return
				}
				if !wh.Consistent || !wh.Lagging {
					t.Fatalf("logged: failed worker %+v, want consistent and lagging", wh)
				}
				if err := coord.CatchUp(); err != nil {
					t.Fatalf("catch-up after the spoiled delivery: %v", err)
				}
				if h := coord.Health(); h.Serving != 3 {
					t.Fatalf("after catch-up %d of 3 serving: %+v", h.Serving, h.WorkersDetail)
				}
			})
		}
	}
}

// goldenFleet spins the fleet the cluster blobs under testdata/ were taken
// on: three single-shard triangle+wedge workers with budget 40 each,
// configured as partitions 0..2 when partitioned.
func goldenFleet(t *testing.T, partitioned bool) []string {
	t.Helper()
	urls := make([]string, 3)
	for i := range urls {
		cfg := serve.Config{Patterns: []wsd.Pattern{wsd.TrianglePattern, wsd.WedgePattern}, M: 40, Shards: 1,
			Options: []wsd.Option{wsd.WithSeed(int64(900 + i))}}
		if partitioned {
			cfg.PartitionIndex, cfg.PartitionCount = i, len(urls)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// blobKeys returns a cluster blob's top-level JSON keys, sorted, and the
// raw values.
func blobKeys(t *testing.T, blob []byte) ([]string, map[string]json.RawMessage) {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	return slices.Sorted(maps.Keys(fields)), fields
}

// TestClusterBlobGoldenRestore restores cluster blobs written by the
// coordinator before broadcast and partitioned ingest shared one path — a
// broadcast fleet with one log and a partitioned fleet with one log per
// partition, 232 events each — onto fresh fleets with fresh logs. The
// restored fleets must serve the recorded per-pattern estimates bit for bit,
// and a snapshot taken straight after must keep the wire shape: "wal" (and
// no "wals") for broadcast, "wals" plus "partitioned": true for partitioned,
// at the recorded log positions.
func TestClusterBlobGoldenRestore(t *testing.T) {
	cases := []struct {
		name        string
		partitioned bool
		logs        int
		keys        []string
		markKey     string
	}{
		{"broadcast_wal", false, 1, []string{"cluster_version", "wal", "workers"}, "wal"},
		{"partitioned_wals", true, 3, []string{"cluster_version", "partitioned", "wals", "workers"}, "wals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := os.ReadFile(filepath.Join("testdata", tc.name+".estimates.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want struct {
				Estimate  float64            `json:"estimate"`
				Estimates map[string]float64 `json:"estimates"`
				Processed int64              `json:"processed"`
			}
			if err := json.Unmarshal(rec, &want); err != nil {
				t.Fatal(err)
			}
			keys, golden := blobKeys(t, blob)
			if !slices.Equal(keys, tc.keys) {
				t.Fatalf("golden blob keys %v, want %v", keys, tc.keys)
			}

			coord, err := cluster.New(cluster.Config{Workers: goldenFleet(t, tc.partitioned),
				Partitioned: tc.partitioned, Logs: freshLogs(t, tc.logs)})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Restore(blob); err != nil {
				t.Fatalf("restore golden blob: %v", err)
			}
			est := quiescedEstimate(t, coord)
			if est.Estimate != want.Estimate || !maps.Equal(est.Estimates, want.Estimates) || est.Processed != want.Processed {
				t.Fatalf("restored estimate %v %v (processed %d), recorded %v %v (processed %d)",
					est.Estimate, est.Estimates, est.Processed, want.Estimate, want.Estimates, want.Processed)
			}

			again, err := coord.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			keys, fields := blobKeys(t, again)
			if !slices.Equal(keys, tc.keys) {
				t.Fatalf("snapshot keys %v, want %v", keys, tc.keys)
			}
			if tc.partitioned && string(fields["partitioned"]) != "true" {
				t.Fatalf(`snapshot "partitioned" = %s, want true`, fields["partitioned"])
			}
			if got, rec := string(fields[tc.markKey]), string(golden[tc.markKey]); got != rec {
				t.Fatalf("snapshot %q = %s, golden blob records %s", tc.markKey, got, rec)
			}
		})
	}
}

// TestDegradedReadOnOversizeReply: a worker whose /estimate and /healthz
// replies run past the coordinator's reply cap — here 2 MiB of otherwise
// valid JSON — is skipped by the gather like an unreachable one, and health
// reports the cap for that worker instead of reading without bound.
func TestDegradedReadOnOversizeReply(t *testing.T) {
	budgets := shard.SplitBudget(300, 3)
	urls, _ := testFleet(t, budgets[:2], []int64{11, 12})
	srv, err := serve.New(serve.Config{Pattern: wsd.TrianglePattern, M: budgets[2], Shards: 1,
		Options: []wsd.Option{wsd.WithSeed(13)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/estimate" && r.URL.Path != "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		fmt.Fprintf(w, `{"pad":%q,`, strings.Repeat("x", 2<<20))
		w.Write(rec.Body.Bytes()[1:])
	}))
	t.Cleanup(ts.Close)

	// Read without a bound, the padded reply is a valid estimate: only the
	// cap can turn it away.
	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Patterns []string `json:"patterns"`
	}
	err = json.NewDecoder(resp.Body).Decode(&probe)
	resp.Body.Close()
	if err != nil || len(probe.Patterns) == 0 {
		t.Fatalf("padded reply does not parse as an estimate: %v %+v", err, probe)
	}

	coord, err := cluster.New(cluster.Config{Workers: append(urls, ts.URL)})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coord, testStream(t, 5, 200))
	est := quiescedEstimate(t, coord)
	if est.Gathered != 2 || !est.Degraded {
		t.Fatalf("gathered %d (degraded %v), want 2 of 3 and degraded", est.Gathered, est.Degraded)
	}
	wh := coord.Health().WorkersDetail[2]
	if wh.Reachable || !strings.Contains(wh.Error, ts.URL) || !strings.Contains(wh.Error, fmt.Sprint(1<<20)) {
		t.Fatalf("oversize worker health %+v, want unreachable with an error naming it and the cap", wh)
	}
}
