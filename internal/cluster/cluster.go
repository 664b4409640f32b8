// Package cluster distributes the shard ensemble across worker nodes: a
// coordinator that broadcasts event batches to N remote wsdserve workers —
// each itself a sharded counter — and serves scatter/gather reads by
// collecting the workers' estimates and combining them with the same
// unit-tested math (internal/combine) the in-process ensemble uses.
//
// The statistical argument is the one internal/shard already relies on, and
// it is indifferent to process boundaries: every worker ingests the complete
// stream with independently seeded randomness, so each worker estimate is an
// independent unbiased estimator of the same quantity. The mean of K worker
// estimates preserves unbiasedness and divides the variance by K; the
// median-of-means keeps sub-Gaussian concentration under the heavy right
// tail of inverse-probability estimates. A coordinator over K single-shard
// workers is therefore statistically interchangeable with one K-shard
// process — the cluster layer buys horizontal memory and CPU, not a
// different estimator.
//
// Consistency model. A worker is *consistent* while it has applied every
// delivery since the cluster's start (or its last successful cluster
// restore). A worker that misses a delivery — network error, crash, 5xx, a
// reply short of its share — is marked inconsistent and excluded from ingest
// and reads: its counter no longer summarizes its stream, and an estimator
// over a prefix of the stream is not an unbiased estimator of the present
// graph. Inconsistent
// workers rejoin only through Restore, which resets every worker to one
// cluster-wide snapshot. Reads additionally tolerate transient
// unreachability: a consistent worker that fails one gather is skipped for
// that read (and stays consistent — its state is intact). Every read reports
// how many workers answered and whether the configured quorum was met, so a
// degraded cluster serves, visibly, from the survivors.
//
// Routing groups. One ingest path serves both fleet shapes. A routing group
// is a set of workers that receive the same substream, with at most one
// write-ahead log recording it. A broadcast fleet is one group holding every
// worker — its members all own every vertex; a partitioned fleet is N
// one-worker groups. Every batch is decoded (a body that does not parse is
// rejected before any worker sees it), split into one share per group, and
// each share is encoded once into the binary wire format and delivered to
// every eligible member of its group, in one global order.
//
// Durability (Config.Logs). With write-ahead logs attached, one per group,
// the model above gains a second, cheaper healing path. Every share is
// appended to its group's log — durable before any member sees it — every
// delivery is stamped with the share's log position (so duplicates and
// replays are idempotent), and the coordinator tracks each worker's
// acknowledged position in its group's log. A worker that misses a delivery
// is marked *lagging*, not inconsistent: its state is a correct prefix of its
// substream, so the coordinator heals it by replaying its log's tail from its
// last ack — at the next ingest (with backoff), on CatchUp, or after a
// Restore — and the sampling estimators' determinism (the TRIEST-FD lineage
// is defined over the ordered stream, and a partition's substream is an
// ordered stream too) makes the healed worker bit-identical to one that never
// failed. Retention truncates each log below its group's minimum ack, so a
// lagging worker's tail is retained until it catches up. Only a worker whose
// reported position aligns with no logged frame boundary — restarted empty
// after retention passed its data, or fed out of band — is inconsistent in
// the old sense and needs a snapshot Restore, after which the blob's recorded
// log positions let replay finish the job ("restore from blob + log replay").
//
// Partitioned mode (Config.Partitioned). Broadcast buys variance reduction
// but zero ingest scaling — every worker applies every event. Partitioned
// mode routes instead: worker k's group owns partition k of the vertices
// (internal/partition — a fixed vertex hash), each edge goes to the owner(s)
// of its endpoints, so worker k samples only its share of the stream and the
// fleet's ingest scales with N. Estimates compose by summation
// (combine.Sum): each worker weighs every contribution by the fraction of the
// completing edge's endpoints it owns, and the coordinator divides the
// summed per-pattern estimates by the pattern's expected visibility
// partition.Beta, keeping the total unbiased (see internal/partition for the
// argument). Reads need the *whole* fleet — a missing partition is a missing
// share of the count, not a lost vote — so the quorum is pinned to the fleet
// size and there are no degraded reads.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wsd "repro"

	"repro/internal/cli"
	"repro/internal/combine"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Config describes the worker fleet a coordinator fronts.
type Config struct {
	// Workers are the worker base URLs ("http://host:port"; a bare
	// "host:port" gets the http scheme). At least one is required.
	Workers []string
	// Combiner folds the worker estimates (default combine.Mean; use
	// combine.MedianOfMeans for tail robustness).
	Combiner combine.Func
	// Quorum is the minimum number of workers that must answer for a read to
	// be served; values < 1 default to a majority (workers/2 + 1). Ingest
	// applies the same bar: a batch that lands on fewer than Quorum workers
	// is reported as an error (the events that did land stay
	// applied — single-pass streams cannot be unapplied).
	Quorum int
	// Timeout bounds each worker request (default 10s).
	Timeout time.Duration
	// Client overrides the HTTP client used for worker requests. When nil, a
	// client with Timeout applied is built; when set, Timeout is ignored and
	// the supplied client's own limits govern.
	Client *http.Client
	// Partitioned switches the coordinator from broadcast to partitioned
	// ingest: edges are routed to the owners of their endpoints, worker i
	// serving partition i of the fleet, and estimates compose by visibility-
	// corrected summation (see the package comment). Combiner must be nil
	// (the mode owns the math) and Quorum must be unset or the fleet size:
	// every partition holds an irreplaceable share of the count. Workers
	// must be configured with the matching serve.Config partition slots.
	Partitioned bool
	// Logs are the write-ahead logs, one per routing group: one log for a
	// broadcast fleet, recording the whole stream, or one per worker for a
	// partitioned fleet, index-aligned with Workers (log i records worker
	// i's substream). Each share is appended to its group's log before
	// delivery, enabling per-worker catch-up by replay (see the durability
	// notes in the package comment). Nil means no durability: a failed
	// delivery marks its worker inconsistent. When set, every entry must be
	// non-nil. The coordinator takes ownership: position tracking, retention
	// truncation, and snapshot positioning all run through them.
	Logs []*wal.Log
}

// ErrBadStream wraps an ingest body that does not parse: a client error, not
// a cluster failure. The coordinator decodes every body whole before any
// worker sees it, so no worker applied any of it and the cluster stays
// consistent.
var ErrBadStream = errors.New("cluster: unparsable stream body")

// ErrNoQuorum is returned when fewer consistent workers than the configured
// quorum are available to serve a request.
var ErrNoQuorum = errors.New("cluster: below worker quorum")

// ErrPartialRestore wraps a restore fan-out that failed after validation:
// some workers swapped to the snapshot state while others kept theirs. The
// failed workers are marked inconsistent; retry the restore to heal.
var ErrPartialRestore = errors.New("cluster: restore incomplete")

// ErrPartialSwap wraps a policy swap that failed after validation: some
// workers applied the new weight function while others kept the old one, so
// the fleet's estimates no longer share one weighting. The failed workers are
// marked inconsistent; heal with a cluster Restore or a retried swap.
var ErrPartialSwap = errors.New("cluster: policy swap incomplete")

// ErrCatchUpIncomplete wraps a CatchUp (or post-restore replay) that left
// some worker behind the log end: unreachable, mid-replay failure, or
// inconsistent. Lagging workers are retried automatically at the next
// ingest; an inconsistent worker needs a snapshot Restore.
var ErrCatchUpIncomplete = errors.New("cluster: catch-up incomplete")

// catchUpBackoff spaces automatic catch-up attempts per worker, so a worker
// that is down does not cost every ingest a probe round trip.
const catchUpBackoff = 2 * time.Second

// MaxBodyBytes is the largest state blob the serving layer moves: the
// default request body cap of a worker's and a coordinator's endpoints, and
// the cap on a worker /snapshot reply the coordinator reads — a bigger blob
// could not be restored through a coordinator's /restore anyway.
const MaxBodyBytes = 64 << 20

// maxReplyBytes caps every other worker reply (ingest acks, estimates,
// health and policy probes), which are small JSON documents.
const maxReplyBytes = 1 << 20

// group is a routing group: the workers that receive the same substream,
// with at most one write-ahead log recording it.
type group struct {
	members []*workerRef
	log     *wal.Log
	// share is the current batch's substream for this group, body its binary
	// encoding, stamp the delivery's stream-position stamp (-1 without a
	// log), and end the log position a successful delivery acknowledges. All
	// are reused across batches under bcastMu.
	share []stream.Event
	body  bytes.Buffer
	stamp int64
	end   WALMark
}

// workerRef is one worker endpoint plus its consistency and catch-up state.
type workerRef struct {
	url string
	// g is the worker's routing group.
	g *group
	// inconsistent is set when the worker misses a delivery and its group has
	// no log, or when its reported position aligns with no logged frame; a
	// successful cluster Restore — or, with a log, a probe that re-aligns —
	// clears it.
	inconsistent atomic.Bool
	// lagging (logged groups only) is set when the worker misses a delivery
	// whose frames are on its group's log: its state is a stream prefix and
	// replay heals it.
	lagging atomic.Bool
	// acked/ackedEvents are the newest log position (frame index / cumulative
	// events) the worker has provably applied. The fleet minimum of acked
	// anchors retention.
	acked       atomic.Uint64
	ackedEvents atomic.Int64
	// lastCatchUp is the unix-nano time of the last catch-up attempt,
	// implementing the ingest-path backoff.
	lastCatchUp atomic.Int64
}

// Coordinator fans ingested batches out to its routing groups and gathers
// the workers' estimates into one combined read. Construct with New; the
// zero value is not usable. Safe for concurrent use.
type Coordinator struct {
	workers     []*workerRef
	groups      []*group
	partitioned bool
	comb        combine.Func
	quorum      int
	client      *http.Client

	// mu guards the ingest/read side against Restore the same way
	// serve.Server does: requests hold the read lock, Restore the write
	// lock, so a restore never interleaves with an ingest.
	mu sync.RWMutex

	// bcastMu serializes ingests, the cross-process analogue of the shard
	// ensemble holding its lock across the per-shard sends: without it, two
	// concurrent ingests could land on different workers in different
	// orders, and an insert/delete pair applied in opposite orders leaves
	// workers summarizing different graphs while still marked consistent.
	// Snapshot also takes it, so a cluster blob can never interleave with an
	// ingest and capture workers at different stream positions. It guards
	// the groups' reused buffers and replayBuf, the reused catch-up body.
	bcastMu   sync.Mutex
	replayBuf []byte

	// decMu serializes the reused ingest-body decode buffer.
	decMu  sync.Mutex
	decBuf []stream.Event
}

// New validates the worker list and returns a coordinator. The workers are
// not contacted: a coordinator can start before its fleet and report the gap
// through Health.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	refs := make([]*workerRef, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		u := NormalizeWorkerURL(w)
		if u == "" {
			return nil, fmt.Errorf("cluster: empty worker address in %v", cfg.Workers)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: worker %s listed twice", u)
		}
		seen[u] = true
		refs = append(refs, &workerRef{url: u})
	}
	comb := cfg.Combiner
	if comb == nil {
		comb = combine.Mean
	}
	quorum := cfg.Quorum
	if quorum < 1 {
		quorum = len(refs)/2 + 1
	}
	if quorum > len(refs) {
		return nil, fmt.Errorf("cluster: quorum %d exceeds the %d configured workers", quorum, len(refs))
	}
	if cfg.Partitioned {
		// The mode owns the read math: estimates are ownership-weighted
		// shares, so summation (with the Beta correction at read time) is the
		// only sound composition, and every partition must answer — averaging
		// or reading around a missing partition would silently bias the count.
		if cfg.Combiner != nil {
			return nil, fmt.Errorf("cluster: partitioned mode composes estimates by visibility-corrected summation; do not set Combiner")
		}
		comb = combine.Sum
		if cfg.Quorum != 0 && cfg.Quorum != len(refs) {
			return nil, fmt.Errorf("cluster: partitioned reads need the whole fleet (every partition holds an irreplaceable share); quorum %d cannot apply — leave Quorum unset", cfg.Quorum)
		}
		quorum = len(refs)
	}
	// A broadcast fleet is one routing group; a partitioned fleet is one
	// group per worker.
	groups := make([]*group, 1)
	if cfg.Partitioned {
		groups = make([]*group, len(refs))
	}
	if cfg.Logs != nil && len(cfg.Logs) != len(groups) {
		return nil, fmt.Errorf("cluster: %d write-ahead logs for %d routing groups; Logs holds one log per group (broadcast takes one log, partitioned one per worker, index-aligned with Workers)", len(cfg.Logs), len(groups))
	}
	for i := range groups {
		groups[i] = &group{}
		if cfg.Logs != nil {
			if cfg.Logs[i] == nil {
				return nil, fmt.Errorf("cluster: Logs[%d] is nil; every routing group needs its own log (or none)", i)
			}
			groups[i].log = cfg.Logs[i]
		}
	}
	for i, w := range refs {
		// Worker i joins group i of a partitioned fleet, the one group of a
		// broadcast fleet.
		w.g = groups[i%len(groups)]
		w.g.members = append(w.g.members, w)
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	return &Coordinator{workers: refs, groups: groups, partitioned: cfg.Partitioned,
		comb: comb, quorum: quorum, client: client}, nil
}

// Partitioned reports whether the coordinator routes by partition instead of
// broadcasting.
func (c *Coordinator) Partitioned() bool { return c.partitioned }

// NormalizeWorkerURL canonicalizes a worker address: trims whitespace and
// trailing slashes (a leftover slash would turn every request path into
// //ingest, which the worker mux redirects and breaks), and defaults the
// scheme to http. Empty input returns "".
func NormalizeWorkerURL(s string) string {
	u := strings.TrimSpace(s)
	u = strings.TrimRight(u, "/")
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Workers returns the configured fleet size.
func (c *Coordinator) Workers() int { return len(c.workers) }

// Quorum returns the minimum worker count required to serve.
func (c *Coordinator) Quorum() int { return c.quorum }

// eligible returns the workers currently eligible for ingest and gather:
// consistent and not lagging — a lagging worker's estimate
// summarizes a stream prefix and must not enter a combined read until replay
// catches it up.
func (c *Coordinator) eligible() []*workerRef {
	out := make([]*workerRef, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.inconsistent.Load() && !w.lagging.Load() {
			out = append(out, w)
		}
	}
	return out
}

// fanout runs fn once per worker concurrently and returns the per-worker
// errors (nil entries for successes), indexed like workers.
func fanout(workers []*workerRef, fn func(i int, w *workerRef) error) []error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *workerRef) {
			defer wg.Done()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	return errs
}

// statusError is a non-2xx worker reply; Client reports whether it was a
// 4xx, i.e. the worker validated and rejected the request without applying
// any of it.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, strings.TrimSpace(e.body))
}

func (e *statusError) client() bool { return e.code >= 400 && e.code < 500 }

// send issues one request to worker path — with an optional stream-position
// stamp (pos >= 0) — and decodes its JSON reply into out (when non-nil). The
// stamp declares the absolute position of the body's first event, making the
// delivery idempotent on the worker: a duplicate (a replay racing the
// original request, or a retry of a request that applied but whose response
// was lost) is skipped and reported back instead of double-applied.
func (c *Coordinator) send(method string, w *workerRef, path string, body []byte, pos int64, out any) error {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if pos >= 0 {
		req.Header.Set(stream.PosHeader, strconv.FormatInt(pos, 10))
	}
	raw, err := c.do(w, req, maxReplyBytes)
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("bad reply: %w", err)
		}
	}
	return nil
}

// get fetches worker path and returns the raw body, at most limit bytes.
func (c *Coordinator) get(w *workerRef, path string, limit int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, w.url+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(w, req, limit)
}

// do runs one worker request and reads its reply body. A reply longer than
// limit bytes is an error naming the worker and the cap — never a silently
// truncated body, and never an unbounded read of a misbehaving worker.
func (c *Coordinator) do(w *workerRef, req *http.Request, limit int64) ([]byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("worker %s: %s reply exceeds the %d-byte cap", w.url, req.URL.Path, limit)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, body: string(raw)}
	}
	return raw, nil
}

// IngestResult reports how an ingest landed.
type IngestResult struct {
	// Accepted is the batch's event count once any worker applied its share:
	// a delivery counts only when the worker's reply covers its whole share
	// (applied or already held), so there is no partial count to report.
	Accepted int `json:"accepted"`
	// Applied is how many workers applied their share of the batch (in a
	// partitioned fleet, possibly an empty one).
	Applied int `json:"applied"`
	// Workers is the configured fleet size.
	Workers int `json:"workers"`
}

// IngestBytes ingests one request body — text or binary stream format, as
// accepted by the workers' /ingest — exactly like SubmitBatch. The body is
// decoded whole before any worker is contacted: a parse error anywhere wraps
// ErrBadStream and no worker sees any of it (the workers' own all-or-nothing
// validation, without N wasted round trips). Deliveries are re-encoded in
// the binary wire format, so a logged frame and a delivered frame are the
// same bytes by construction.
func (c *Coordinator) IngestBytes(raw []byte) (IngestResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.decMu.Lock()
	defer c.decMu.Unlock()
	evs, err := c.decodeBody(raw)
	if err != nil {
		return IngestResult{Workers: len(c.workers)}, fmt.Errorf("%w: %v", ErrBadStream, err)
	}
	return c.submit(evs)
}

// decodeBody parses an ingest body (text or binary, sniffed like the
// workers' /ingest) into the reused decode buffer; caller holds decMu.
func (c *Coordinator) decodeBody(raw []byte) ([]stream.Event, error) {
	br, isBinary := stream.SniffBinary(bytes.NewReader(raw))
	if !isBinary {
		return stream.Read(br)
	}
	reader, err := stream.NewBinaryReader(br)
	if err != nil {
		return nil, err
	}
	evs := c.decBuf[:0]
	for {
		evs, err = reader.ReadBatchAppend(evs)
		if err == io.EOF {
			c.decBuf = evs
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// SubmitBatch ingests one event batch: it is split into one share per
// routing group, each share is appended to its group's log (when it has
// one) and then delivered to every eligible member of the group. The encode
// buffers are reused across calls, so steady-state submission allocates
// only what the HTTP client needs.
//
// A worker that fails its delivery — or replies covering less than its
// share — is marked lagging when its group has a log (replay heals it) and
// inconsistent when not (only a Restore does). If fewer than the quorum
// applied, the error wraps ErrNoQuorum; the events that did land stay
// applied (single-pass streams cannot be unapplied).
func (c *Coordinator) SubmitBatch(evs []stream.Event) error {
	if len(evs) == 0 {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, err := c.submit(evs)
	return err
}

// submit is the one ingest path, for both fleet shapes; caller holds the
// read lock. It owns bcastMu for the whole fan-out, so every worker applies
// its deliveries in one global order and snapshots never tear.
func (c *Coordinator) submit(evs []stream.Event) (IngestResult, error) {
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	res := IngestResult{Workers: len(c.workers)}
	// Heal first: a lagging worker past its backoff rejoins before this
	// batch, so one missed delivery costs one gap, not permanent exclusion.
	c.healLagging()
	live := c.eligible()
	if len(live) < c.quorum {
		return res, fmt.Errorf("%w: %d serving of %d (need %d)", ErrNoQuorum, len(live), len(c.workers), c.quorum)
	}
	c.route(evs)
	for _, g := range c.groups {
		if err := g.encode(); err != nil {
			return res, err
		}
	}
	// Durable before delivered: every share is on its group's log before any
	// worker sees any of the batch.
	for i, g := range c.groups {
		if err := g.append(); err != nil {
			// Earlier groups' logs already hold their shares but no worker has
			// seen them: mark those members lagging so replay delivers the
			// durable tail. Nothing was delivered, so the client can retry
			// once the log is writable again.
			for _, h := range c.groups[:i] {
				if len(h.share) == 0 {
					continue
				}
				for _, w := range h.members {
					w.lagging.Store(true)
				}
			}
			return res, fmt.Errorf("cluster: write-ahead log %s append: %w", g.log.Dir(), err)
		}
	}
	errs := fanout(live, func(_ int, w *workerRef) error {
		g := w.g
		if len(g.share) == 0 {
			return nil // no share this batch; the worker's position is unchanged
		}
		var reply struct {
			Accepted  int `json:"accepted"`
			Duplicate int `json:"duplicate"`
		}
		if err := c.send(http.MethodPost, w, "/ingest", g.body.Bytes(), g.stamp, &reply); err != nil {
			return err
		}
		// Duplicates count as covered: the worker already holds those events
		// (an earlier delivery applied but its response was lost).
		if reply.Accepted+reply.Duplicate != len(g.share) {
			return fmt.Errorf("applied %d of %d events (%d duplicate)", reply.Accepted, len(g.share), reply.Duplicate)
		}
		return nil
	})
	var firstErr error
	for i, err := range errs {
		w := live[i]
		if err == nil {
			res.Applied++
			if w.g.log != nil {
				w.acked.Store(w.g.end.Position)
				w.ackedEvents.Store(w.g.end.Events)
			}
			continue
		}
		// The body is canonical — this coordinator encoded it — so a
		// rejection is never a bad stream: the worker is out of step.
		if w.g.log != nil {
			// The share is on the group's log; replay heals it.
			w.lagging.Store(true)
			w.lastCatchUp.Store(time.Now().UnixNano())
		} else {
			// Without a log a missed share is unrecoverable (or its outcome
			// unknowable: a lost response may have followed an apply), so the
			// worker's sample no longer provably summarizes its stream.
			w.inconsistent.Store(true)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("worker %s: %w", w.url, err)
		}
	}
	if res.Applied > 0 {
		res.Accepted = len(evs)
	}
	c.truncateToMinAck()
	if res.Applied < c.quorum {
		return res, fmt.Errorf("%w: %d of %d workers applied (need %d): %v", ErrNoQuorum, res.Applied, len(c.workers), c.quorum, firstErr)
	}
	return res, nil
}

// route splits a batch into one share per routing group; bcastMu held. The
// one group of a broadcast fleet owns every vertex, so its share is the
// batch itself. A partitioned fleet's groups receive the events whose
// endpoints they own, in stream order: a two-owner edge goes to both owners,
// each weighting its contributions by its owned-endpoint fraction
// (serve.Config's partition slot), so the fleet counts every completing edge
// with total weight one.
func (c *Coordinator) route(evs []stream.Event) {
	if len(c.groups) == 1 {
		c.groups[0].share = evs
		return
	}
	for _, g := range c.groups {
		g.share = g.share[:0]
	}
	for _, ev := range evs {
		a, b := partition.Owners(ev.Edge, len(c.groups))
		c.groups[a].share = append(c.groups[a].share, ev)
		if b != a {
			c.groups[b].share = append(c.groups[b].share, ev)
		}
	}
}

// encode canonicalizes the group's share into its reused body buffer, once
// for every member. WriteBatch splits at stream.MaxFrameEvents, the same
// boundaries the log append uses, so a logged frame and a delivered frame
// are always the same bytes.
func (g *group) encode() error {
	g.body.Reset()
	bw, err := stream.NewBinaryWriter(&g.body)
	if err != nil {
		return err
	}
	if err := bw.WriteBatch(g.share); err != nil {
		return err
	}
	return bw.Flush()
}

// append records the group's share on its log, when it has one, and sets
// the delivery's stamp and the ack it earns. The stamp is the log's event
// count before this share: every delivery of these frames — this one, a
// catch-up replay, or a duplicate of either — declares the same position, so
// a worker applies the events exactly once no matter how many copies reach
// it or in what order.
func (g *group) append() error {
	g.stamp = -1
	if g.log == nil {
		return nil
	}
	g.stamp = g.log.Events()
	for lo := 0; lo < len(g.share); lo += stream.MaxFrameEvents {
		if _, err := g.log.Append(g.share[lo:min(lo+stream.MaxFrameEvents, len(g.share))]); err != nil {
			return err
		}
	}
	g.end = WALMark{Position: g.log.End(), Events: g.log.Events()}
	return nil
}

// truncateToMinAck retires sealed log segments every member of the log's
// group has passed; bcastMu held. Every member's ack — lagging and
// inconsistent included — pins retention: a lagging worker's replay tail
// must be retained until it catches up, and an inconsistent worker's stale
// ack still brackets where a recent snapshot may sit. Only Restore (which
// re-seeds every ack from the blob's position) moves an irrecoverably behind
// worker forward.
//
// When *no* consistent member remains, the minimum ack is a minimum over
// stale bookmarks only — positions no live state backs. Acks can sit above
// the last truncation point without any consistent state behind them (a
// Restore seeds and replays acks without truncating), so truncating to that
// minimum could retire exactly the tail the healing snapshot restore needs
// to replay ("restore from blob + tail"). A group with no consistent member
// therefore pins its log's retention outright: no truncation until a
// restore brings a worker back. For a partition's one-worker group that is:
// truncate to the worker's ack, or not at all while it is inconsistent.
// Truncation failures are left for the next attempt.
func (c *Coordinator) truncateToMinAck() {
	for _, g := range c.groups {
		if g.log == nil {
			continue
		}
		anyConsistent := false
		min := g.members[0].acked.Load()
		for _, w := range g.members {
			if !w.inconsistent.Load() {
				anyConsistent = true
			}
			if a := w.acked.Load(); a < min {
				min = a
			}
		}
		if anyConsistent {
			g.log.TruncateBefore(min)
		}
	}
}

// errStopChunk is the internal sentinel replayTo uses to cut a replay body
// at its size bound.
var errStopChunk = errors.New("cluster: replay chunk full")

// healLagging attempts catch-up on lagging workers past their backoff;
// bcastMu held.
func (c *Coordinator) healLagging() {
	now := time.Now().UnixNano()
	for _, w := range c.workers {
		if w.lagging.Load() && !w.inconsistent.Load() && now-w.lastCatchUp.Load() >= int64(catchUpBackoff) {
			c.catchUpWorker(w)
		}
	}
}

// catchUpWorker heals one worker by replay of its group's log; bcastMu
// held. It probes the worker's absolute stream position, aligns it to a
// logged frame boundary, and replays the tail above it. Success clears
// lagging (and inconsistent); a probe or replay failure leaves the worker
// lagging for the next attempt; a position that aligns with no retained
// frame marks it inconsistent — only a snapshot restore can bridge that gap.
func (c *Coordinator) catchUpWorker(w *workerRef) error {
	lg := w.g.log
	w.lastCatchUp.Store(time.Now().UnixNano())
	raw, err := c.get(w, "/healthz", maxReplyBytes)
	if err != nil {
		w.lagging.Store(true)
		return fmt.Errorf("worker %s: probe: %w", w.url, err)
	}
	var probe struct {
		Position int64 `json:"position"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		w.lagging.Store(true)
		return fmt.Errorf("worker %s: probe: %w", w.url, err)
	}
	pos, ok := lg.PosForEvents(probe.Position)
	if !ok {
		w.inconsistent.Store(true)
		if probe.Position < lg.BaseEvents() {
			return fmt.Errorf("worker %s is at event %d but retention begins at event %d (%v); restore a cluster snapshot to heal", w.url, probe.Position, lg.BaseEvents(), wal.ErrTruncated)
		}
		return fmt.Errorf("worker %s reports position %d, which aligns with no logged frame boundary; restore a cluster snapshot to heal", w.url, probe.Position)
	}
	// Alignment certifies the worker's state as a log prefix (a logged group
	// only ever receives canonical logged frames), so it is healable from
	// here.
	w.inconsistent.Store(false)
	w.acked.Store(pos)
	w.ackedEvents.Store(probe.Position)
	if err := c.replayTo(w); err != nil {
		w.lagging.Store(true)
		return fmt.Errorf("worker %s: replay: %w", w.url, err)
	}
	w.lagging.Store(false)
	return nil
}

// replayTo streams the tail of the worker's group log above its ack as
// chunked binary /ingest bodies — stored frame payloads copied verbatim
// behind a stream header, so the worker applies exactly the frames (and
// frame boundaries) the live deliveries did. Every chunk is stamped with
// the worker's acknowledged event count (the absolute position of the
// chunk's first event), so a replay that races a duplicate of an earlier
// delivery is skipped, not double-applied; events the worker already held
// come back in the reply's duplicate count and still count as covered. The
// worker's ack advances per applied chunk; bcastMu held.
func (c *Coordinator) replayTo(w *workerRef) error {
	const maxReplayBody = 4 << 20
	lg := w.g.log
	for {
		start := w.acked.Load()
		if start >= lg.End() {
			return nil
		}
		startEvents := w.ackedEvents.Load()
		body := stream.AppendBinaryHeader(c.replayBuf[:0])
		var (
			chunkEnd uint64
			total    int
		)
		err := lg.ReplayPayloads(start, func(pos uint64, events int, payload []byte) error {
			body = binary.AppendUvarint(body, uint64(len(payload)))
			body = append(body, payload...)
			chunkEnd = pos
			total += events
			if len(body) >= maxReplayBody {
				return errStopChunk
			}
			return nil
		})
		c.replayBuf = body[:0]
		if err != nil && !errors.Is(err, errStopChunk) {
			return err
		}
		if chunkEnd == 0 || chunkEnd <= start {
			return nil // nothing above start survived into this chunk
		}
		var reply struct {
			Accepted  int `json:"accepted"`
			Duplicate int `json:"duplicate"`
		}
		if err := c.send(http.MethodPost, w, "/ingest", body, startEvents, &reply); err != nil {
			return err
		}
		if reply.Accepted+reply.Duplicate != total {
			return fmt.Errorf("accepted %d of %d replayed events (%d duplicate)", reply.Accepted, total, reply.Duplicate)
		}
		ev, ok := lg.EventsAt(chunkEnd)
		if !ok {
			return fmt.Errorf("%w: position %d left the retained range during replay", wal.ErrTruncated, chunkEnd)
		}
		w.acked.Store(chunkEnd)
		w.ackedEvents.Store(ev)
	}
}

// CatchUp probes every worker, re-aligns its acknowledged position from its
// reported absolute position, and replays whatever tail it is missing — the
// explicit healing entry point (POST /catchup, coordinator boot, after
// Restore). Probing every worker also repatriates an inconsistent worker
// whose position turns out to align after all (e.g. after the coordinator
// restarted and lost its ack table). It returns nil only when every worker
// is caught up to its group's log end; otherwise the error wraps
// ErrCatchUpIncomplete and the stragglers stay marked for automatic retry.
func (c *Coordinator) CatchUp() error {
	if c.groups[0].log == nil {
		return fmt.Errorf("cluster: no write-ahead log configured (start the coordinator with -wal-dir)")
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	var firstErr error
	for _, w := range c.workers {
		if err := c.catchUpWorker(w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.truncateToMinAck()
	if firstErr != nil {
		return fmt.Errorf("%w: %v", ErrCatchUpIncomplete, firstErr)
	}
	return nil
}

// Logs returns the write-ahead logs, one per routing group in fleet order
// (nil without durability): one log for a broadcast fleet, one per worker
// for a partitioned fleet.
func (c *Coordinator) Logs() []*wal.Log {
	if c.groups[0].log == nil {
		return nil
	}
	logs := make([]*wal.Log, len(c.groups))
	for i, g := range c.groups {
		logs[i] = g.log
	}
	return logs
}

// Estimate is a combined scatter/gather read over the worker fleet.
type Estimate struct {
	// Estimate is the combined primary-pattern estimate.
	Estimate float64 `json:"estimate"`
	// Estimates maps every served pattern to its combined estimate.
	Estimates map[string]float64 `json:"estimates"`
	// Patterns is the served pattern set in estimator order.
	Patterns []string `json:"patterns"`
	// WorkerEstimates is each gathered worker's primary estimate, in fleet
	// order of the workers that answered — the spread is an empirical
	// variance check, exactly like the single-process /estimate "shards"
	// field.
	WorkerEstimates []float64 `json:"worker_estimates"`
	// Processed is the minimum processed-event count across the gathered
	// workers.
	Processed int64 `json:"processed"`
	// Workers is the configured fleet size; Gathered is how many answered
	// this read.
	Workers  int `json:"workers"`
	Gathered int `json:"gathered"`
	// Quorum is the configured read quorum; Degraded is true when any
	// configured worker did not contribute.
	Quorum   int  `json:"quorum"`
	Degraded bool `json:"degraded"`
	// Window and Halflife report the fleet's temporal serving mode (zero for
	// whole-stream), verified uniform across the gathered workers — a fleet
	// mixing windowed and whole-stream workers would combine estimates of
	// different quantities.
	Window   int64   `json:"window"`
	Halflife float64 `json:"halflife"`
}

// workerEstimate is the slice of a worker's /estimate reply the gather
// needs.
type workerEstimate struct {
	Estimate  float64            `json:"estimate"`
	Estimates map[string]float64 `json:"estimates"`
	Patterns  []string           `json:"patterns"`
	Processed int64              `json:"processed"`
	Window    int64              `json:"window"`
	Halflife  float64            `json:"halflife"`
}

// Estimate gathers every consistent worker's estimates and combines them per
// pattern with the coordinator's combiner. Consistent workers that fail the
// gather are skipped (and stay consistent — reads do not mutate state); the
// reply reports how many answered. Fewer answers than the quorum is an
// ErrNoQuorum error. Workers serving different pattern sets (or different
// estimate-vector widths) are a deployment error and fail the read.
func (c *Coordinator) Estimate() (*Estimate, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live := c.eligible()
	replies := make([]*workerEstimate, len(live))
	fanout(live, func(i int, w *workerRef) error {
		raw, err := c.get(w, "/estimate", maxReplyBytes)
		if err != nil {
			return err
		}
		var we workerEstimate
		if err := json.Unmarshal(raw, &we); err != nil {
			return err
		}
		replies[i] = &we
		return nil
	})
	var gathered []*workerEstimate
	for _, r := range replies {
		if r != nil {
			gathered = append(gathered, r)
		}
	}
	out := &Estimate{
		Workers:  len(c.workers),
		Gathered: len(gathered),
		Quorum:   c.quorum,
		Degraded: len(gathered) < len(c.workers),
	}
	if len(gathered) < c.quorum {
		return out, fmt.Errorf("%w: gathered %d of %d workers (need %d)", ErrNoQuorum, len(gathered), len(c.workers), c.quorum)
	}
	patterns := gathered[0].Patterns
	if len(patterns) == 0 {
		// A reply with no pattern list would combine into a width-0 vector;
		// the endpoint is answering JSON but is not a (current) wsdserve
		// worker — a deployment error, reported instead of served.
		return out, fmt.Errorf("cluster: worker reply carries no pattern estimates; is every -workers entry a wsdserve worker?")
	}
	vectors := make([][]float64, len(gathered))
	out.Processed = gathered[0].Processed
	out.Window, out.Halflife = gathered[0].Window, gathered[0].Halflife
	if c.partitioned {
		out.Processed = 0
	}
	for i, g := range gathered {
		if !slices.Equal(g.Patterns, patterns) {
			return out, fmt.Errorf("cluster: workers serve different pattern sets (%v vs %v); the fleet must be configured uniformly", patterns, g.Patterns)
		}
		if g.Window != out.Window || g.Halflife != out.Halflife {
			// A window/halflife split means the workers are estimating
			// different quantities; combining them would be silently wrong.
			return out, fmt.Errorf("cluster: workers serve different temporal modes (window=%d halflife=%v vs window=%d halflife=%v); the fleet must be configured uniformly",
				out.Window, out.Halflife, g.Window, g.Halflife)
		}
		vec := make([]float64, 0, len(patterns))
		for _, p := range patterns {
			v, ok := g.Estimates[p]
			if !ok {
				return out, fmt.Errorf("cluster: worker reply missing estimate for pattern %s", p)
			}
			vec = append(vec, v)
		}
		vectors[i] = vec
		out.WorkerEstimates = append(out.WorkerEstimates, g.Estimate)
		if c.partitioned {
			// The fleet splits the stream, so fleet progress is the sum of the
			// partitions' positions. (A two-owner edge is delivered to both
			// owners and counted by each, so this can exceed the client-side
			// event count — it measures deliveries, the unit acks and replay
			// use, not unique edges.)
			out.Processed += g.Processed
		} else if g.Processed < out.Processed {
			out.Processed = g.Processed
		}
	}
	combined, err := combine.Vectors(vectors, c.comb)
	if err != nil {
		return out, fmt.Errorf("cluster: %w", err)
	}
	if c.partitioned {
		// The summed per-pattern estimates total the ownership-weighted shares
		// of the pattern instances each partition can see; dividing by the
		// expected visibility Beta (a pure function of pattern and fleet size)
		// restores unbiasedness. See internal/partition for the derivation.
		for i, p := range patterns {
			kind, err := cli.ParsePattern(p)
			if err != nil {
				return out, fmt.Errorf("cluster: worker reports pattern %q: %w", p, err)
			}
			combined[i] /= partition.Beta(kind, len(c.workers))
		}
	}
	out.Patterns = patterns
	out.Estimate = combined[0]
	out.Estimates = make(map[string]float64, len(patterns))
	for i, p := range patterns {
		out.Estimates[p] = combined[i]
	}
	return out, nil
}

// Snapshot is the serialized state of the whole cluster: one worker ensemble
// snapshot per worker, in fleet order. ClusterVersion guards the format; the
// field name is distinct from the per-process snapshots' "version" so the
// facade and the workers can recognize (and refuse) a cluster blob handed to
// a single-process restore.
type Snapshot struct {
	ClusterVersion int               `json:"cluster_version"`
	Workers        []json.RawMessage `json:"workers"`
	// WAL, present on snapshots taken by a logged broadcast coordinator,
	// records the position of its one routing group's log the blob
	// describes: restoring it re-seeds every worker's acknowledged position
	// there, and replaying the log above it brings the fleet to the present —
	// the "restore from blob + log replay" guarantee.
	WAL *WALMark `json:"wal,omitempty"`
	// Partitioned marks a blob taken by a partitioned coordinator. Worker i's
	// blob holds partition i's sample, which describes a share of the graph
	// rather than all of it, so a partitioned blob restores only onto a
	// partitioned coordinator of the same fleet size (and vice versa).
	Partitioned bool `json:"partitioned,omitempty"`
	// WALs, present on snapshots taken by a logged partitioned coordinator,
	// records each partition group's log position at the blob — the
	// per-partition analogue of WAL, with the same restore-then-replay
	// guarantee running independently per partition.
	WALs []WALMark `json:"wals,omitempty"`
}

// mark returns the log position the blob records for routing group gi: the
// one WAL mark of a broadcast blob, partition gi's WALs entry of a
// partitioned one, or nil where the blob records none.
func (s *Snapshot) mark(gi int) *WALMark {
	if !s.Partitioned {
		return s.WAL
	}
	if s.WALs == nil {
		return nil
	}
	return &s.WALs[gi]
}

// WALMark is a stream position as the write-ahead log measures it: a frame
// index and the cumulative event count through it.
type WALMark struct {
	Position uint64 `json:"position"`
	Events   int64  `json:"events"`
}

// snapshotVersion guards the cluster snapshot wire format.
const snapshotVersion = 1

// Flush fans POST /flush out to the whole fleet and blocks until every
// worker has applied every batch delivered before the call: a fleet-wide
// position barrier. Ingests are excluded while it runs (same locking as
// Snapshot), so when Flush returns nil a subsequent Estimate reflects every
// completed submission. Unlike Snapshot it moves no state — this is the
// barrier to use when the caller wants read-your-writes, not a checkpoint.
func (c *Coordinator) Flush() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	errs := fanout(c.workers, func(i int, w *workerRef) error {
		return c.send(http.MethodPost, w, "/flush", nil, -1, nil)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: flush worker %s: %w", c.workers[i].url, err)
		}
	}
	return nil
}

// Snapshot fans GET /snapshot out to the whole fleet and returns one
// versioned cluster blob. Every configured worker must contribute: a
// snapshot missing a worker could not restore the full cluster, so a
// degraded fleet cannot be checkpointed (restore it first). Each worker blob
// is validated (reusing the facade's snapshot inspection, core
// validation included) and the fleet must be uniform — same pattern set and
// shard shape on every worker.
func (c *Coordinator) Snapshot() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Excluding ingests while the snapshot fans out is what makes the blob a
	// single stream position: every completed ingest is on every worker, and
	// none is mid-flight on some workers only. Reads stay concurrent (they
	// take neither lock exclusively).
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	if live := c.eligible(); len(live) < len(c.workers) {
		return nil, fmt.Errorf("cluster: %d of %d workers are not serving (lagging or inconsistent); a cluster snapshot needs the whole fleet (catch it up or restore it first)", len(c.workers)-len(live), len(c.workers))
	}
	snap := Snapshot{ClusterVersion: snapshotVersion, Workers: make([]json.RawMessage, len(c.workers)), Partitioned: c.partitioned}
	errs := fanout(c.workers, func(i int, w *workerRef) error {
		raw, err := c.get(w, "/snapshot", MaxBodyBytes)
		if err != nil {
			return err
		}
		snap.Workers[i] = raw
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: snapshot worker %s: %w", c.workers[i].url, err)
		}
	}
	infos, err := validateWorkerBlobs(snap.Workers)
	if err != nil {
		return nil, err
	}
	for i, info := range infos {
		// Under bcastMu no delivery is mid-flight and every eligible worker
		// has acked its group's log end, so each worker's own recorded
		// position must agree with that log — a mismatch means some worker's
		// state is not the logged stream, and a blob that replays wrongly is
		// worse than no blob.
		if lg := c.workers[i].g.log; lg != nil && info.Position != lg.Events() {
			return nil, fmt.Errorf("cluster: worker %s snapshot is at position %d, its log is at %d; the blob does not describe one stream position", c.workers[i].url, info.Position, lg.Events())
		}
	}
	var marks []WALMark
	for _, g := range c.groups {
		if g.log != nil {
			marks = append(marks, WALMark{Position: g.log.End(), Events: g.log.Events()})
		}
	}
	if marks != nil {
		if c.partitioned {
			snap.WALs = marks
		} else {
			snap.WAL = &marks[0]
		}
	}
	return json.Marshal(snap)
}

// validateWorkerBlobs inspects every worker ensemble blob (which runs the
// core snapshot validation on each shard) and checks fleet uniformity,
// returning the per-worker infos.
func validateWorkerBlobs(blobs []json.RawMessage) ([]wsd.ShardedSnapshotInfo, error) {
	infos := make([]wsd.ShardedSnapshotInfo, len(blobs))
	for i, raw := range blobs {
		info, err := wsd.InspectShardedSnapshot(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d snapshot: %w", i, err)
		}
		infos[i] = info
		if i == 0 {
			continue
		}
		if info.Pattern != infos[0].Pattern || !slices.Equal(info.Patterns, infos[0].Patterns) {
			return nil, fmt.Errorf("cluster: worker %d counts a different pattern set than worker 0; the fleet must be uniform", i)
		}
		if info.Shards != infos[0].Shards {
			return nil, fmt.Errorf("cluster: worker %d holds %d shards, worker 0 holds %d; the fleet must be uniform", i, info.Shards, infos[0].Shards)
		}
	}
	return infos, nil
}

// DecodeSnapshot parses and validates a cluster Snapshot blob — version,
// per-worker ensemble decode (core validation included), and fleet
// uniformity — without contacting any worker.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("cluster: decode snapshot: %w", err)
	}
	if snap.ClusterVersion != snapshotVersion {
		// The mirror image of the facade's cluster-blob refusal: a
		// single-process ensemble blob has no cluster_version, so point the
		// operator at the right endpoint instead of reporting "version 0".
		var ensembleProbe struct {
			Version int               `json:"version"`
			Shards  []json.RawMessage `json:"shards"`
		}
		if snap.ClusterVersion == 0 && json.Unmarshal(data, &ensembleProbe) == nil && len(ensembleProbe.Shards) > 0 {
			return nil, fmt.Errorf("cluster: blob is a single-process ensemble snapshot (%d shards); POST it to one worker's /restore, not the coordinator's", len(ensembleProbe.Shards))
		}
		return nil, fmt.Errorf("cluster: snapshot version %d unsupported (want %d)", snap.ClusterVersion, snapshotVersion)
	}
	if len(snap.Workers) == 0 {
		return nil, fmt.Errorf("cluster: snapshot holds no workers")
	}
	if _, err := validateWorkerBlobs(snap.Workers); err != nil {
		return nil, err
	}
	return &snap, nil
}

// IsClusterSnapshot reports whether data looks like a cluster Snapshot blob
// (as opposed to a single-process ensemble or counter snapshot) without
// fully validating it.
func IsClusterSnapshot(data []byte) bool {
	var probe struct {
		ClusterVersion int `json:"cluster_version"`
	}
	return json.Unmarshal(data, &probe) == nil && probe.ClusterVersion > 0
}

// Restore fans a cluster snapshot back out: worker i receives blob i on
// POST /restore. The blob must hold exactly one ensemble per configured
// worker; each worker re-validates its blob against its own configuration
// (pattern set, shard count, budget), so a mismatched deployment refuses the
// restore before any state is swapped on it. On success every worker is
// marked consistent again — Restore is how a degraded fleet heals. If any
// worker fails, the workers that did restore have swapped state while the
// failed ones kept theirs, so the error marks the failures inconsistent and
// the cluster stays degraded until a retry succeeds.
func (c *Coordinator) Restore(blob []byte) error {
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		return err
	}
	if len(snap.Workers) != len(c.workers) {
		return fmt.Errorf("cluster: snapshot holds %d workers, coordinator is configured for %d", len(snap.Workers), len(c.workers))
	}
	if snap.Partitioned != c.partitioned {
		// Worker blobs carry whole-stream samples in broadcast mode and
		// per-partition shares in partitioned mode; crossing the modes would
		// restore state that silently estimates the wrong quantity.
		if snap.Partitioned {
			return fmt.Errorf("cluster: snapshot was taken by a partitioned coordinator; this coordinator broadcasts")
		}
		return fmt.Errorf("cluster: snapshot was taken by a broadcast coordinator; this coordinator is partitioned")
	}
	if snap.WALs != nil && len(snap.WALs) != len(c.groups) {
		return fmt.Errorf("cluster: snapshot records %d partition log positions, coordinator has %d routing groups", len(snap.WALs), len(c.groups))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	// Position the blob against every group's log before any worker state is
	// touched: the restore is only useful if each log can carry its group
	// from the blob's position to the present.
	marks := make(map[*group]*WALMark, len(c.groups))
	for i, g := range c.groups {
		if g.log == nil {
			continue
		}
		mark, err := positionMark(g.log, snap.mark(i))
		if err != nil {
			return fmt.Errorf("%s: %w", g.log.Dir(), err)
		}
		marks[g] = mark
	}
	errs := fanout(c.workers, func(i int, w *workerRef) error {
		return c.send(http.MethodPost, w, "/restore", snap.Workers[i], -1, nil)
	})
	var firstErr error
	for i, err := range errs {
		w := c.workers[i]
		if err != nil {
			w.inconsistent.Store(true)
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: worker %s: %v", ErrPartialRestore, w.url, err)
			}
		} else {
			w.inconsistent.Store(false)
			if mark := marks[w.g]; mark != nil {
				w.acked.Store(mark.Position)
				w.ackedEvents.Store(mark.Events)
				w.lagging.Store(mark.Position < w.g.log.End())
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	// Where a blob is behind its log's present, finish the job by replay, so
	// a successful restore always lands every worker at its group's log end.
	// A replay failure is retried automatically at the next ingest.
	var replayErr error
	for _, w := range c.workers {
		if mark := marks[w.g]; mark == nil || mark.Position >= w.g.log.End() {
			continue
		}
		if err := c.replayTo(w); err != nil {
			w.lagging.Store(true)
			if replayErr == nil {
				replayErr = fmt.Errorf("%w: worker %s: %v", ErrCatchUpIncomplete, w.url, err)
			}
			continue
		}
		w.lagging.Store(false)
	}
	return replayErr
}

// positionMark validates a snapshot's recorded position against one
// write-ahead log (see Restore): behind retention is fatal, ahead of the log
// re-anchors an empty log at the mark, inside the range must align with a
// frame boundary holding the recorded event count. A nil mark (a blob from
// before the log existed) is sound only on a fresh log and positions at zero.
func positionMark(lg *wal.Log, mark *WALMark) (*WALMark, error) {
	if mark == nil {
		if lg.End() != 0 || lg.Base() != 0 {
			return nil, fmt.Errorf("cluster: snapshot carries no log position but the log spans (%d, %d]; take a fresh cluster snapshot (which records its position) or start from an empty -wal-dir", lg.Base(), lg.End())
		}
		return &WALMark{}, nil
	}
	switch {
	case mark.Position < lg.Base():
		return nil, fmt.Errorf("cluster: snapshot is at position %d but retention begins at %d (%v); take a fresh cluster snapshot", mark.Position, lg.Base(), wal.ErrTruncated)
	case mark.Position > lg.End():
		// Ahead of the log: sound only when the log holds no frames at all (a
		// fresh directory) — the blob supplies everything through its mark and
		// the log re-anchors there.
		if err := lg.RebaseEmpty(mark.Position, mark.Events); err != nil {
			return nil, fmt.Errorf("cluster: snapshot is at position %d but the log ends at %d: %v", mark.Position, lg.End(), err)
		}
	default:
		if ev, ok := lg.EventsAt(mark.Position); !ok || ev != mark.Events {
			return nil, fmt.Errorf("cluster: snapshot records %d events at position %d, the log has %d; snapshot and log describe different streams", mark.Events, mark.Position, ev)
		}
	}
	return mark, nil
}

// SwapPolicy fans a policy artifact out to the whole fleet as PUT /policy:
// every worker quiesces its ensemble and swaps its weight function to the
// artifact's policy, reservoir state untouched. The swap needs the full fleet
// — a worker that keeps the old weights would contribute estimates weighted
// differently from the rest, which the combiner cannot reconcile — so a
// degraded fleet refuses the swap before any worker changes (catch it up or
// restore it first).
//
// The artifact is decoded and validated locally first: a malformed blob is a
// plain client error and no worker is contacted. If every worker validated
// and rejected the artifact (4xx) nothing was applied anywhere and the fleet
// stays uniform; the error is again the client's. Any other failure after at
// least one worker swapped leaves the fleet running two weight functions: the
// failed workers are marked inconsistent (excluded from reads) and the error
// wraps ErrPartialSwap — retry the swap or Restore to heal.
func (c *Coordinator) SwapPolicy(artifact []byte) error {
	if _, err := policy.Decode(artifact); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Excluding ingests while the swap fans out gives every worker the
	// weight flip at the same stream position — the fleet analogue of the
	// ensemble's quiesce barrier.
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	if live := c.eligible(); len(live) < len(c.workers) {
		return fmt.Errorf("cluster: %d of %d workers are not serving (lagging or inconsistent); a policy swap needs the whole fleet (catch it up or restore it first)", len(c.workers)-len(live), len(c.workers))
	}
	errs := fanout(c.workers, func(i int, w *workerRef) error {
		return c.send(http.MethodPut, w, "/policy", artifact, -1, nil)
	})
	var (
		firstErr error
		clientRejects,
		applied int
	)
	for i, err := range errs {
		if err == nil {
			applied++
			continue
		}
		var se *statusError
		if errors.As(err, &se) && se.client() {
			clientRejects++
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("worker %s: %w", c.workers[i].url, err)
		}
	}
	if applied == len(c.workers) {
		return nil
	}
	if applied == 0 && clientRejects == len(c.workers) {
		// Every worker validated the artifact whole and rejected it (e.g. the
		// pattern does not match the deployment): nothing changed anywhere, the
		// fleet still runs one weight function.
		return fmt.Errorf("cluster: policy rejected by workers: %v", firstErr)
	}
	for i, err := range errs {
		if err != nil {
			// Some worker swapped (or the outcome is unknowable), so a worker
			// that did not provably apply the new policy no longer weights
			// events like the rest of the fleet.
			c.workers[i].inconsistent.Store(true)
		}
	}
	return fmt.Errorf("%w: %d of %d workers swapped: %v", ErrPartialSwap, applied, len(c.workers), firstErr)
}

// PolicyStatus gathers GET /policy from the serving workers, verifies the
// fleet runs one policy, and returns the first worker's reply verbatim.
func (c *Coordinator) PolicyStatus() (json.RawMessage, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live := c.eligible()
	if len(live) < c.quorum {
		return nil, fmt.Errorf("%w: %d serving of %d (need %d)", ErrNoQuorum, len(live), len(c.workers), c.quorum)
	}
	replies := make([][]byte, len(live))
	errs := fanout(live, func(i int, w *workerRef) error {
		raw, err := c.get(w, "/policy", maxReplyBytes)
		replies[i] = raw
		return err
	})
	var (
		ref      json.RawMessage
		refID    string
		refURL   string
		gathered int
	)
	for i, raw := range replies {
		if errs[i] != nil {
			continue
		}
		gathered++
		var probe struct {
			Policy string `json:"policy"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("cluster: worker %s /policy reply: %w", live[i].url, err)
		}
		if ref == nil {
			ref, refID, refURL = raw, probe.Policy, live[i].url
			continue
		}
		if probe.Policy != refID {
			return nil, fmt.Errorf("cluster: workers run different policies (%s on %s, %s on %s); swap through the coordinator to keep the fleet uniform", refID, refURL, probe.Policy, live[i].url)
		}
	}
	if gathered < c.quorum {
		return nil, fmt.Errorf("%w: gathered %d of %d workers (need %d)", ErrNoQuorum, gathered, len(c.workers), c.quorum)
	}
	return ref, nil
}

// WorkerHealth is one worker's slice of a cluster health probe.
type WorkerHealth struct {
	URL string `json:"url"`
	// Consistent is false once the worker's state cannot be healed by log
	// replay (or, without a log, once it has missed any delivery); it needs
	// a cluster restore to rejoin.
	Consistent bool `json:"consistent"`
	// Reachable is whether the worker answered this probe.
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
	// Lagging (logged groups) is true while the worker is behind its group's
	// log and awaiting catch-up replay; it is excluded from reads meanwhile.
	Lagging bool `json:"lagging,omitempty"`
	// Position is the worker's self-reported absolute stream position
	// (logged groups, reachable workers only); Acked is the newest log
	// position the coordinator has confirmed on it.
	Position int64  `json:"position,omitempty"`
	Acked    uint64 `json:"acked,omitempty"`
	// Policy is the worker's self-reported active weight function: a learned
	// policy's content ID, or "heuristic".
	Policy string `json:"policy,omitempty"`
}

// WALHealth is the coordinator's view of one routing group's write-ahead log.
type WALHealth struct {
	Dir string `json:"dir"`
	// Base..End is the retained position range; Events the cumulative event
	// count through End; Segments the segment file count.
	Base     uint64 `json:"base"`
	End      uint64 `json:"end"`
	Events   int64  `json:"events"`
	Segments int    `json:"segments"`
}

// Health is the coordinator's readiness report: the fleet roster with
// per-worker consistency and reachability, and whether enough workers are
// serving to meet the read quorum.
type Health struct {
	// Status is "ok" (full fleet serving), "degraded" (some workers out but
	// quorum holds), or "unavailable" (below quorum).
	Status string `json:"status"`
	// Workers is the configured fleet size; Serving counts workers that are
	// both consistent and currently reachable.
	Workers int `json:"workers"`
	Serving int `json:"serving"`
	// Quorum is the configured read quorum; HasQuorum is Serving >= Quorum.
	Quorum    int  `json:"quorum"`
	HasQuorum bool `json:"has_quorum"`
	// Patterns and Shards describe the deployment as reported by the first
	// serving worker's /healthz (empty/zero when nothing is reachable);
	// Policy is its active weight function (a policy content ID or
	// "heuristic"). Every serving worker must agree on all three — a worker
	// weighting events under a different policy than the rest of the fleet
	// degrades health, exactly like a mismatched pattern set.
	Patterns []string `json:"patterns,omitempty"`
	Shards   int      `json:"shards,omitempty"`
	Policy   string   `json:"policy,omitempty"`
	// Window and Halflife are the fleet's temporal serving mode as reported
	// by the first serving worker (zero for whole-stream); a worker on a
	// different mode degrades health like a mismatched pattern set.
	Window   int64   `json:"window,omitempty"`
	Halflife float64 `json:"halflife,omitempty"`
	// Partitioned reports the coordinator's ingest mode; in partitioned mode
	// each worker's partition slot is verified against its fleet index, so a
	// mis-deployed worker (wrong -partition-index, or not partitioned at all)
	// degrades health instead of silently biasing every read.
	Partitioned bool `json:"partitioned,omitempty"`
	// WAL reports the retained range of a broadcast fleet's one log; WALs
	// the per-partition ranges of a partitioned fleet (fleet order).
	WAL  *WALHealth  `json:"wal,omitempty"`
	WALs []WALHealth `json:"wals,omitempty"`
	// WorkersDetail lists every configured worker.
	WorkersDetail []WorkerHealth `json:"workers_detail"`
}

// Health probes every worker's /healthz concurrently and reports fleet
// readiness. Probing never mutates consistency: a worker that misses a probe
// is reported unreachable but keeps its state. Health deliberately takes no
// coordinator lock — it reads only immutable config and per-worker atomics —
// so orchestrator liveness probes keep answering even while a long Restore
// holds the write lock.
func (c *Coordinator) Health() Health {
	h := Health{Workers: len(c.workers), Quorum: c.quorum, Partitioned: c.partitioned}
	h.WorkersDetail = make([]WorkerHealth, len(c.workers))
	var logs []WALHealth
	for _, g := range c.groups {
		if lg := g.log; lg != nil {
			logs = append(logs, WALHealth{Dir: lg.Dir(), Base: lg.Base(), End: lg.End(), Events: lg.Events(), Segments: lg.Segments()})
		}
	}
	if logs != nil {
		if c.partitioned {
			h.WALs = logs
		} else {
			h.WAL = &logs[0]
		}
	}
	type workerHealthz struct {
		Patterns  []string `json:"patterns"`
		Shards    int      `json:"shards"`
		Position  int64    `json:"position"`
		Policy    string   `json:"policy"`
		Window    int64    `json:"window"`
		Halflife  float64  `json:"halflife"`
		Partition *struct {
			Index int `json:"index"`
			Count int `json:"count"`
		} `json:"partition"`
	}
	probes := make([]*workerHealthz, len(c.workers))
	fanout(c.workers, func(i int, w *workerRef) error {
		wh := WorkerHealth{URL: w.url, Consistent: !w.inconsistent.Load(), Lagging: w.lagging.Load()}
		if w.g.log != nil {
			wh.Acked = w.acked.Load()
		}
		raw, err := c.get(w, "/healthz", maxReplyBytes)
		if err != nil {
			wh.Error = err.Error()
		} else {
			wh.Reachable = true
			var probe workerHealthz
			if json.Unmarshal(raw, &probe) == nil {
				probes[i] = &probe
				wh.Policy = probe.Policy
				if w.g.log != nil {
					wh.Position = probe.Position
				}
			}
		}
		h.WorkersDetail[i] = wh
		return nil
	})
	uniform := true
	var ref *workerHealthz
	for i := range h.WorkersDetail {
		wh := &h.WorkersDetail[i]
		if !wh.Consistent || !wh.Reachable || wh.Lagging {
			continue
		}
		h.Serving++
		probe := probes[i]
		if probe == nil {
			continue
		}
		// Partition slots are per-worker config, not fleet-wide: worker i must
		// serve partition i of exactly this fleet size under a partitioned
		// coordinator (its sampling weights depend on it), and must not weight
		// by partition at all under a broadcast one.
		if c.partitioned {
			if probe.Partition == nil {
				uniform = false
				wh.Error = "worker is not configured for partitioned ingest (no partition slot in /healthz); start it with -partition-index and -partition-count"
			} else if probe.Partition.Index != i || probe.Partition.Count != len(c.workers) {
				uniform = false
				wh.Error = fmt.Sprintf("worker serves partition %d of %d but holds fleet slot %d of %d; fix its -partition-index/-partition-count", probe.Partition.Index, probe.Partition.Count, i, len(c.workers))
			}
		} else if probe.Partition != nil {
			uniform = false
			wh.Error = fmt.Sprintf("worker weights events for partition %d of %d but this coordinator broadcasts; remove its partition flags", probe.Partition.Index, probe.Partition.Count)
		}
		if ref == nil {
			ref = probe
			h.Patterns = probe.Patterns
			h.Shards = probe.Shards
			h.Policy = probe.Policy
			h.Window = probe.Window
			h.Halflife = probe.Halflife
			continue
		}
		// A worker counting a different pattern set (or shard shape) than
		// the rest of the fleet cannot contribute to the ensemble; readiness
		// must not show green on a fleet whose reads will all fail.
		if !slices.Equal(probe.Patterns, ref.Patterns) || probe.Shards != ref.Shards {
			uniform = false
			wh.Error = fmt.Sprintf("worker configuration differs from the fleet: patterns %v / %d shards vs %v / %d shards", probe.Patterns, probe.Shards, ref.Patterns, ref.Shards)
		} else if probe.Policy != ref.Policy {
			// A split-policy fleet (a partial swap, or a worker restarted with
			// stale boot flags) weights events inconsistently across workers;
			// its combined estimates mix estimators of different variance
			// silently, so readiness reports it instead.
			uniform = false
			wh.Error = fmt.Sprintf("worker runs policy %s but the fleet reference runs %s; re-run the policy swap or restore a cluster snapshot", probe.Policy, ref.Policy)
		} else if probe.Window != ref.Window || probe.Halflife != ref.Halflife {
			// A split temporal mode means the workers estimate different
			// quantities; every combined read would be silently wrong.
			uniform = false
			wh.Error = fmt.Sprintf("worker serves window=%d halflife=%v but the fleet reference serves window=%d halflife=%v; restart it with matching flags", probe.Window, probe.Halflife, ref.Window, ref.Halflife)
		}
	}
	h.HasQuorum = h.Serving >= c.quorum
	switch {
	case !h.HasQuorum:
		h.Status = "unavailable"
	case h.Serving < h.Workers || !uniform:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}
