// Fault-injection suite for the write-ahead-logged coordinator: workers are
// killed mid-stream and restarted empty, the coordinator crashes over a torn
// append, and restores land on logs ahead of the blob — in every case the
// healed fleet must agree bit for bit with an uninterrupted in-process
// ensemble on the same seeds, because log replay re-delivers the exact frame
// sequence the failure interrupted.
package cluster_test

import (
	"errors"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// restartableWorker is a single-shard wsdserve worker that can be killed and
// brought back — fresh and empty — on the same address, so a coordinator
// holding its URL sees the same endpoint die and return with no state.
type restartableWorker struct {
	addr   string
	budget int
	seed   int64
	// partitionIndex/partitionCount, when count > 0, give the worker a
	// partition slot (the partitioned suite's fleets); a restart keeps the
	// slot, as a redeployed pod would.
	partitionIndex, partitionCount int
	ts                             *httptest.Server
	srv                            *serve.Server
}

func newRestartableWorker(t *testing.T, budget int, seed int64) *restartableWorker {
	t.Helper()
	w := &restartableWorker{budget: budget, seed: seed}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.addr = l.Addr().String()
	w.start(t, l)
	t.Cleanup(func() {
		if w.ts != nil {
			w.kill()
		}
	})
	return w
}

func (w *restartableWorker) start(t *testing.T, l net.Listener) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Pattern:        wsd.TrianglePattern,
		M:              w.budget,
		Shards:         1,
		Options:        []wsd.Option{wsd.WithSeed(w.seed)},
		PartitionIndex: w.partitionIndex,
		PartitionCount: w.partitionCount,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	w.ts, w.srv = ts, srv
}

// kill drops the worker mid-stream: the listener closes, in-flight and
// future requests fail, and the process state is gone.
func (w *restartableWorker) kill() {
	w.ts.Close()
	w.srv.Close()
	w.ts, w.srv = nil, nil
}

// restart brings the worker back empty on its old address — a fresh process
// with zero ingested events and only its construction seed, which the
// snapshot-free catch-up path must not depend on.
func (w *restartableWorker) restart(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	w.start(t, l)
}

// walFleet builds n restartable workers and a logged coordinator over them.
func walFleet(t *testing.T, budgets []int, seeds []int64, opts wal.Options) ([]*restartableWorker, *cluster.Coordinator, *wal.Log) {
	t.Helper()
	workers := make([]*restartableWorker, len(budgets))
	urls := make([]string, len(budgets))
	for i := range budgets {
		workers[i] = newRestartableWorker(t, budgets[i], seeds[i])
		urls[i] = "http://" + workers[i].addr
	}
	log, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	coord, err := cluster.New(cluster.Config{Workers: urls, Logs: []*wal.Log{log}})
	if err != nil {
		t.Fatal(err)
	}
	return workers, coord, log
}

// referenceEnsemble is the uninterrupted in-process ground truth: the same
// counters the workers run, fed the same stream in one process.
func referenceEnsemble(t *testing.T, budgets []int, seeds []int64) *shard.Ensemble {
	t.Helper()
	counters := make([]shard.Counter, len(budgets))
	for i := range counters {
		c, err := core.New(core.Config{
			M:            budgets[i],
			Pattern:      wsd.TrianglePattern,
			Weight:       weights.GPSDefault(),
			Rng:          xrand.NewSequence(seeds[i], 0),
			SkipTemporal: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = c
	}
	ens, err := shard.New(counters)
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

// TestWorkerKillRestartCatchUp is the acceptance check for the durability
// layer: a worker killed mid-stream and restarted with nothing but its
// construction seed must rejoin through log replay alone, and every estimate
// after the heal must be bit-identical to an uninterrupted in-process
// ensemble on the same seeds — replay re-delivers the exact frames, in the
// exact boundaries, the worker missed.
func TestWorkerKillRestartCatchUp(t *testing.T) {
	s := testStream(t, 21, 600)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{101, 102, 103}

	ref := referenceEnsemble(t, budgets, seeds)
	if err := ref.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	want := ref.Close()

	workers, coord, log := walFleet(t, budgets, seeds, wal.Options{})
	feed(t, coord, s[:200])

	// Kill one worker; the stream keeps flowing on quorum, with the dead
	// worker marked lagging (its prefix is in the log), not inconsistent.
	workers[1].kill()
	feed(t, coord, s[200:400])
	h := coord.Health()
	if !h.WorkersDetail[1].Lagging {
		t.Fatalf("killed worker not lagging: %+v", h.WorkersDetail[1])
	}
	if !h.WorkersDetail[1].Consistent {
		t.Fatalf("killed worker marked inconsistent (unreachable is not divergence): %+v", h.WorkersDetail[1])
	}
	est, err := coord.Estimate()
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if est.Gathered != 2 {
		t.Fatalf("gathered %d while one worker is down, want 2", est.Gathered)
	}

	// Restart it empty and catch it up from the log: no snapshot, no operator
	// state, just replay from position zero.
	workers[1].restart(t)
	if err := coord.CatchUp(); err != nil {
		t.Fatalf("catch-up after empty restart: %v", err)
	}
	h = coord.Health()
	if h.WorkersDetail[1].Lagging || !h.WorkersDetail[1].Consistent {
		t.Fatalf("worker not healed: %+v", h.WorkersDetail[1])
	}
	if h.WorkersDetail[1].Acked != log.End() {
		t.Fatalf("healed worker acked %d, log ends at %d", h.WorkersDetail[1].Acked, log.End())
	}

	// The healed fleet finishes the stream and lands exactly on the
	// uninterrupted ensemble.
	feed(t, coord, s[400:])
	got := quiescedEstimate(t, coord)
	if got.Estimate != want {
		t.Fatalf("healed cluster estimate %v, uninterrupted ensemble %v (must be bit-identical)", got.Estimate, want)
	}
	if got.Gathered != 3 || got.Degraded {
		t.Fatalf("healed read metadata: %+v", got)
	}
	if got.Processed != int64(len(s)) {
		t.Fatalf("processed %d of %d", got.Processed, len(s))
	}

	// And the restarted worker individually matches its never-killed twin:
	// compare against a second, uninterrupted fleet on the same seeds.
	urlsB, _ := testFleet(t, budgets, seeds)
	coordB, err := cluster.New(cluster.Config{Workers: urlsB})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, coordB, s)
	wantWorkers := quiescedEstimate(t, coordB).WorkerEstimates
	for i, e := range got.WorkerEstimates {
		if e != wantWorkers[i] {
			t.Fatalf("worker %d estimate %v, uninterrupted twin %v", i, e, wantWorkers[i])
		}
	}
}

// TestCoordinatorCrashReopenTornFrame: a coordinator crash mid-append leaves
// a torn record at the log tail. A new coordinator over the reopened log must
// truncate the tear, realign the fleet from the workers' self-reported
// positions, and continue to the uninterrupted answer.
func TestCoordinatorCrashReopenTornFrame(t *testing.T) {
	s := testStream(t, 33, 600)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{11, 12, 13}

	ref := referenceEnsemble(t, budgets, seeds)
	if err := ref.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	want := ref.Close()

	workers, coordA, logA := walFleet(t, budgets, seeds, wal.Options{})
	feed(t, coordA, s[:300])
	dir := logA.Dir()
	if err := logA.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: a partial record lands after the last whole frame — written
	// durably, broadcast never happened.
	seg := filepath.Join(dir, "wal-00000000000000000000.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x80, 0x02, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The restarted coordinator: fresh process, same log dir, same worker
	// URLs, no memory of any ack.
	logB, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen over torn frame: %v", err)
	}
	t.Cleanup(func() { logB.Close() })
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = "http://" + w.addr
	}
	coordB, err := cluster.New(cluster.Config{Workers: urls, Logs: []*wal.Log{logB}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coordB.CatchUp(); err != nil {
		t.Fatalf("boot catch-up: %v", err)
	}
	feed(t, coordB, s[300:])
	if got := quiescedEstimate(t, coordB).Estimate; got != want {
		t.Fatalf("post-crash cluster estimate %v, uninterrupted ensemble %v", got, want)
	}
}

// TestRestoreSeedsAcksAndReplaysTail: restoring a positioned blob onto a log
// that has advanced past it must replay the gap — the workers land at the
// blob's position, the log supplies the rest, and the fleet finishes on the
// uninterrupted answer. This is "restore from blob + log replay": checkpoints
// no longer have to be the newest state, only a retained position.
func TestRestoreSeedsAcksAndReplaysTail(t *testing.T) {
	s := testStream(t, 47, 600)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{71, 72, 73}

	ref := referenceEnsemble(t, budgets, seeds)
	if err := ref.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	want := ref.Close()

	_, coord, log := walFleet(t, budgets, seeds, wal.Options{})
	feed(t, coord, s[:300])
	blob, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The stream moves on after the checkpoint: the blob is now stale by 150
	// events, all of them in the log.
	feed(t, coord, s[300:450])
	staleBy := log.Events()

	// Disaster: replace the whole fleet with brand-new empty workers (new
	// construction seeds — the blob carries the RNG state) behind a new
	// coordinator sharing the log.
	urlsC, _ := testFleet(t, budgets, []int64{991, 992, 993})
	coordC, err := cluster.New(cluster.Config{Workers: urlsC, Logs: []*wal.Log{log}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coordC.Restore(blob); err != nil {
		t.Fatalf("restore onto advanced log: %v", err)
	}
	if staleBy != log.Events() {
		t.Fatalf("restore moved the log: %d events, had %d", log.Events(), staleBy)
	}
	// The post-restore replay already closed the gap: every worker serves.
	h := coordC.Health()
	for i, wh := range h.WorkersDetail {
		if wh.Lagging || !wh.Consistent {
			t.Fatalf("worker %d not caught up after restore: %+v", i, wh)
		}
	}
	feed(t, coordC, s[450:])
	if got := quiescedEstimate(t, coordC).Estimate; got != want {
		t.Fatalf("restore+replay estimate %v, uninterrupted ensemble %v", got, want)
	}
}

// TestBeyondRetentionRestartNeedsRestore: once retention has dropped the
// prefix an empty restart would need, catch-up must refuse loudly (the
// worker is inconsistent, not silently wrong) and a restore onto a fresh log
// — the runbook's answer — must heal the fleet back to bit-identity.
func TestBeyondRetentionRestartNeedsRestore(t *testing.T) {
	s := testStream(t, 55, 600)
	budgets := shard.SplitBudget(600, 3)
	seeds := []int64{81, 82, 83}

	ref := referenceEnsemble(t, budgets, seeds)
	if err := ref.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	want := ref.Close()

	// Tiny segments so retention actually removes the prefix. The snapshot is
	// taken early — at log position 1 — so the fleet's acks can carry
	// retention past it.
	workers, coord, log := walFleet(t, budgets, seeds, wal.Options{SegmentBytes: 512})
	feed(t, coord, s[:100])
	blob, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blobPos := log.End()
	// Everyone acks far past the snapshot; retention trims the log behind the
	// fleet's minimum, dropping the blob's position.
	feed(t, coord, s[100:450])
	if log.Base() <= blobPos {
		t.Fatalf("retention did not pass the blob (base %d, blob at %d); the scenario needs a dropped prefix", log.Base(), blobPos)
	}

	// An empty restart now reaches for truncated history: catch-up must fail
	// with the retention sentinel and mark the worker inconsistent.
	workers[2].kill()
	workers[2].restart(t)
	err = coord.CatchUp()
	if err == nil || !errors.Is(err, cluster.ErrCatchUpIncomplete) {
		t.Fatalf("catch-up beyond retention: err = %v, want ErrCatchUpIncomplete", err)
	}
	if !strings.Contains(err.Error(), "restore") {
		t.Fatalf("catch-up error does not point at the restore runbook: %v", err)
	}
	if h := coord.Health(); h.WorkersDetail[2].Consistent {
		t.Fatalf("beyond-retention worker still consistent: %+v", h.WorkersDetail[2])
	}

	// The old blob predates retention too: restoring it onto this log must
	// refuse rather than replay from a hole.
	if err := coord.Restore(blob); err == nil || !strings.Contains(err.Error(), "retention") {
		t.Fatalf("restore below retention: err = %v, want a retention refusal", err)
	}

	// The runbook heal: bring the blob up on a fresh log (RebaseEmpty anchors
	// it at the blob's position) and refeed the stream from the cut. The blob
	// was taken at event 100, so the coordinator replays nothing and the
	// stream resumes there.
	freshLog, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { freshLog.Close() })
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = "http://" + w.addr
	}
	coordB, err := cluster.New(cluster.Config{Workers: urls, Logs: []*wal.Log{freshLog}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coordB.Restore(blob); err != nil {
		t.Fatalf("restore onto fresh log: %v", err)
	}
	if freshLog.Events() != 100 {
		t.Fatalf("fresh log not rebased to the blob position: %d events, want 100", freshLog.Events())
	}
	feed(t, coordB, s[100:])
	if got := quiescedEstimate(t, coordB).Estimate; got != want {
		t.Fatalf("healed estimate %v, uninterrupted ensemble %v", got, want)
	}
}

// TestWALModeBadBodyLeavesLogUntouched: in log mode the coordinator decodes
// before it logs, so a corrupt body must reject as a client error with the
// log position unmoved and every worker still serving.
func TestWALModeBadBodyLeavesLogUntouched(t *testing.T) {
	s := testStream(t, 61, 200)
	budgets := shard.SplitBudget(300, 3)
	_, coord, log := walFleet(t, budgets, []int64{41, 42, 43}, wal.Options{})
	feed(t, coord, s[:100])
	end, events := log.End(), log.Events()

	if _, err := coord.IngestBytes([]byte("not a stream\n")); !errors.Is(err, cluster.ErrBadStream) {
		t.Fatalf("bad body: err = %v, want ErrBadStream", err)
	}
	if log.End() != end || log.Events() != events {
		t.Fatalf("bad body moved the log: %d/%d, had %d/%d", log.End(), log.Events(), end, events)
	}
	h := coord.Health()
	for i, wh := range h.WorkersDetail {
		if !wh.Consistent || wh.Lagging {
			t.Fatalf("bad body damaged worker %d: %+v", i, wh)
		}
	}
	if err := coord.SubmitBatch(s[100:150]); err != nil {
		t.Fatalf("valid ingest after bad body: %v", err)
	}
}

// TestSnapshotRefusesLaggingWorker: a cluster blob must describe one stream
// position; while a worker lags the log, snapshotting would bake in a
// position the lagger has not reached — refuse until the fleet converges.
func TestSnapshotRefusesLaggingWorker(t *testing.T) {
	s := testStream(t, 67, 300)
	budgets := shard.SplitBudget(300, 3)
	workers, coord, _ := walFleet(t, budgets, []int64{51, 52, 53}, wal.Options{})
	feed(t, coord, s[:100])

	workers[0].kill()
	feed(t, coord, s[100:200])
	if _, err := coord.Snapshot(); err == nil {
		t.Fatal("snapshot with a lagging worker must fail")
	}

	workers[0].restart(t)
	if err := coord.CatchUp(); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if _, err := coord.Snapshot(); err != nil {
		t.Fatalf("snapshot after heal: %v", err)
	}
}

// TestIngestDecodesBinaryInLogMode: the logged path re-frames whatever body
// arrives, so binary ingest through IngestBytes must land in the log and on
// the workers identically to SubmitBatch.
func TestIngestDecodesBinaryInLogMode(t *testing.T) {
	s := testStream(t, 71, 256)
	budgets := shard.SplitBudget(300, 3)
	_, coord, log := walFleet(t, budgets, []int64{91, 92, 93}, wal.Options{})

	var buf strings.Builder
	if err := stream.WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	res, err := coord.IngestBytes([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != len(s) {
		t.Fatalf("accepted %d of %d", res.Accepted, len(s))
	}
	if log.Events() != int64(len(s)) {
		t.Fatalf("log holds %d events, want %d", log.Events(), len(s))
	}
	est := quiescedEstimate(t, coord)
	if est.Processed != int64(len(s)) {
		t.Fatalf("processed %d, want %d", est.Processed, len(s))
	}
}
