// Package window defines the temporal-estimation modes the counter stack
// serves on top of whole-stream WSD sampling: sliding windows over the last
// W insertion events and exponential decay with a configured halflife.
//
// Time here is insertion-event time: the k-th surviving edge insertion is
// t = k. The stream codecs carry no wall-clock timestamps (stream.Event is
// {Op, Edge}), and the whole counter stack — reservoir arrival indexes,
// snapshot positions, WAL offsets — is already indexed by event position, so
// event time is the one clock every layer agrees on deterministically.
// "The last hour" translates to "the last W insertions" at the producer's
// known event rate; deletions carry no tick of their own (a deletion refers
// to mass inserted at some earlier tick, it does not age the stream).
//
// The two modes are mutually exclusive:
//
//   - Window W keeps estimates over exactly the last W insertion events by
//     expiring aged edges through the counter's TRIEST-FD-style deletion
//     path. Ring is the supporting structure: a FIFO of live edges in
//     insertion order with O(1) membership.
//   - Halflife h decays every sampled contribution by 2^(-Δt/h): the
//     estimate is multiplied by e^(-λ) (λ = ln2/h) on each insertion tick
//     before new mass is added, and sampling weights are scaled by e^(+λt)
//     so that recent edges out-rank old ones by exactly the decay ratio.
//
// The zero Spec is the whole-stream mode every prior version shipped;
// Window = math.MaxInt64 and Halflife = +Inf degenerate to it bit-for-bit
// (nothing ever expires; λ = 0 makes every decay factor exactly 1).
package window

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/graph"
)

// Spec selects a temporal estimation mode. The zero value means whole-stream
// estimation (no window, no decay). At most one of Window and Halflife may be
// set; construct with New or ParseSpec to get that validated.
type Spec struct {
	// Window, when positive, restricts estimation to the last Window
	// insertion events. An edge inserted at tick t expires at tick t+Window.
	Window int64
	// Halflife, when positive, applies exponential decay: a contribution
	// aged Δt insertion ticks is weighted 2^(-Δt/Halflife).
	Halflife float64
}

// New validates and normalizes a (window, halflife) pair into a Spec.
// halflife = +Inf normalizes to 0 (no decay): λ = ln2/∞ is exactly zero, so
// the caller asked for the whole-stream counter by a different name.
func New(windowEvents int64, halflife float64) (Spec, error) {
	if math.IsInf(halflife, 1) {
		halflife = 0
	}
	s := Spec{Window: windowEvents, Halflife: halflife}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate reports whether the Spec is well-formed: non-negative fields,
// finite halflife, and at most one mode selected.
func (s Spec) Validate() error {
	if s.Window < 0 {
		return fmt.Errorf("window: window must be positive, got %d", s.Window)
	}
	if s.Halflife < 0 || math.IsNaN(s.Halflife) || math.IsInf(s.Halflife, 1) {
		return fmt.Errorf("window: halflife must be positive and finite, got %v", s.Halflife)
	}
	if s.Window > 0 && s.Halflife > 0 {
		return fmt.Errorf("window: sliding window and decay are mutually exclusive (window %d, halflife %v)", s.Window, s.Halflife)
	}
	return nil
}

// IsZero reports whether the Spec selects whole-stream estimation.
func (s Spec) IsZero() bool { return s.Window == 0 && s.Halflife == 0 }

// Lambda returns the decay rate ln2/Halflife, or 0 when no decay is
// configured.
func (s Spec) Lambda() float64 {
	if s.Halflife <= 0 {
		return 0
	}
	return math.Ln2 / s.Halflife
}

// String renders the mode for error messages and health payloads.
func (s Spec) String() string {
	switch {
	case s.Window > 0:
		return fmt.Sprintf("window=%d", s.Window)
	case s.Halflife > 0:
		return fmt.Sprintf("halflife=%v", s.Halflife)
	}
	return "whole-stream"
}

// ParseSpec builds a Spec from the string forms shared by the wsdserve flags
// and the /estimate query parameters. Empty strings and "inf" mean "not set"
// for both fields (?window=inf asserts the whole-stream mode explicitly).
func ParseSpec(windowStr, halflifeStr string) (Spec, error) {
	var w int64
	switch windowStr {
	case "", "inf":
	default:
		v, err := strconv.ParseInt(windowStr, 10, 64)
		if err != nil || v <= 0 {
			return Spec{}, fmt.Errorf("window: bad window %q: want a positive event count or \"inf\"", windowStr)
		}
		w = v
	}
	var h float64
	switch halflifeStr {
	case "", "inf":
	default:
		v, err := strconv.ParseFloat(halflifeStr, 64)
		if err != nil || v <= 0 || math.IsInf(v, 1) || math.IsNaN(v) {
			return Spec{}, fmt.Errorf("window: bad halflife %q: want a positive event count or \"inf\"", halflifeStr)
		}
		h = v
	}
	return New(w, h)
}

// Entry is one ring slot: an edge, the insertion tick it arrived at, and
// whether a genuine stream deletion already removed it (expiry then skips
// it — its mass left the estimate when the deletion was applied).
type Entry struct {
	Edge graph.Edge
	At   int64
	Dead bool
}

// Ring is the sliding window's edge ledger: a FIFO of insertions in tick
// order with O(1) live-edge membership. The counter pushes every surviving
// insertion (sampled or not — deletion estimator updates do not require the
// deleted edge to be in the reservoir, so expiry must replay every aged
// edge), pops aged entries from the head, and marks entries dead when a
// genuine deletion consumes them first.
//
// Entries live in a circular buffer addressed by push sequence number: the
// entry pushed s-th sits in slot s mod len(buf). Advancing the head therefore
// never moves an entry; only growth (doubling when the buffer is full) copies
// the pending entries into their new slots.
//
// Live membership is an open-addressed index over the same sequence numbers:
// a power-of-two table of {edge key, s+1} slots (0 marks an empty slot),
// probed linearly from a multiplicative hash of the key. Deletion shifts the
// rest of the probe chain back instead of leaving tombstones, and the table
// doubles before it passes 3/4 load, so every chain stays short. Push, Kill
// and ExpireOne each cost one probe: Push claims its slot in the same probe
// that detects a live duplicate, and Kill and ExpireOne find the slot they
// clear.
//
// The zero Ring is empty and ready to use.
type Ring struct {
	buf        []Entry // power-of-two length; slot s&(len-1) holds entry s
	head, tail uint64  // pending entries are sequence numbers [head, tail)
	idx        []slot  // live entries only; power-of-two length
	shift      uint    // 64 - log2(len(idx)): the hash keeps the top bits
	live       int     // occupied idx slots
}

// slot is one live-index cell: the edge packed as U<<32|V and its entry's
// sequence number plus one, so the zero slot is empty.
type slot struct {
	key, seq uint64
}

// Fibonacci hashing: multiply by 2^64/phi and keep the top bits.
const hashMul = 0x9E3779B97F4A7C15

func edgeKey(e graph.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// home is the slot a key's probe chain starts at.
func (r *Ring) home(k uint64) uint64 { return (k * hashMul) >> r.shift }

// find returns the index slot holding key k.
func (r *Ring) find(k uint64) (uint64, bool) {
	if r.live == 0 {
		return 0, false
	}
	mask := uint64(len(r.idx) - 1)
	for i := r.home(k); r.idx[i].seq != 0; i = (i + 1) & mask {
		if r.idx[i].key == k {
			return i, true
		}
	}
	return 0, false
}

// unlink empties index slot i and shifts the rest of its probe chain back
// so that no lookup ever stops early at the hole: a later entry moves into
// the hole unless its home slot lies cyclically after the hole.
func (r *Ring) unlink(i uint64) {
	mask := uint64(len(r.idx) - 1)
	for j := (i + 1) & mask; r.idx[j].seq != 0; j = (j + 1) & mask {
		if (j-r.home(r.idx[j].key))&mask >= (j-i)&mask {
			r.idx[i] = r.idx[j]
			i = j
		}
	}
	r.idx[i] = slot{}
	r.live--
}

// growIndex doubles the index (to 16 slots from empty) and re-inserts every
// live slot.
func (r *Ring) growIndex() {
	n := 2 * len(r.idx)
	if n == 0 {
		n = 16
	}
	old := r.idx
	r.idx = make([]slot, n)
	r.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for _, sl := range old {
		if sl.seq == 0 {
			continue
		}
		i := r.home(sl.key)
		for r.idx[i].seq != 0 {
			i = (i + 1) & mask
		}
		r.idx[i] = sl
	}
}

// Len returns the number of live (non-dead, non-expired) edges.
func (r *Ring) Len() int { return r.live }

// Has reports whether e is live in the window.
func (r *Ring) Has(e graph.Edge) bool {
	_, ok := r.find(edgeKey(e))
	return ok
}

// at returns the slot holding pending entry s.
func (r *Ring) at(s uint64) *Entry { return &r.buf[s&uint64(len(r.buf)-1)] }

// Push records the insertion of e at tick at and reports whether it did.
// Ticks must be non-decreasing. An edge that is already live is refused and
// nothing is recorded: the window holds at most one live copy of an edge, so
// a caller can use Push itself as its duplicate-insertion check.
func (r *Ring) Push(e graph.Edge, at int64) bool {
	if 4*(r.live+1) > 3*len(r.idx) {
		r.growIndex()
	}
	k := edgeKey(e)
	mask := uint64(len(r.idx) - 1)
	i := r.home(k)
	for ; r.idx[i].seq != 0; i = (i + 1) & mask {
		if r.idx[i].key == k {
			return false
		}
	}
	if r.tail-r.head == uint64(len(r.buf)) {
		r.grow()
	}
	*r.at(r.tail) = Entry{Edge: e, At: at}
	r.tail++ // now the new entry's sequence number plus one
	r.idx[i] = slot{key: k, seq: r.tail}
	r.live++
	return true
}

// grow doubles the buffer, moving each pending entry to its slot under the
// new length. Sequence numbers, and so the index, are unchanged.
func (r *Ring) grow() {
	n := 2 * len(r.buf)
	if n == 0 {
		n = 16
	}
	old := r.buf
	r.buf = make([]Entry, n)
	for s := r.head; s < r.tail; s++ {
		*r.at(s) = old[s&uint64(len(old)-1)]
	}
}

// Kill marks the live entry for e dead (a genuine stream deletion consumed
// it) and reports whether e was live. A false return means the deletion
// refers to an edge that already expired or was never inserted; the caller
// must then ignore the deletion entirely, or it would subtract instances the
// windowed estimate no longer counts.
func (r *Ring) Kill(e graph.Edge) bool {
	i, ok := r.find(edgeKey(e))
	if !ok {
		return false
	}
	r.at(r.idx[i].seq - 1).Dead = true
	r.unlink(i)
	return true
}

// ExpireOne pops the oldest entry if it has aged out (At <= cutoff),
// returning its edge. Dead entries are discarded silently (their mass left
// the estimate when the genuine deletion was applied) and the scan continues
// to the next head. The boolean is false when nothing is left to expire.
func (r *Ring) ExpireOne(cutoff int64) (graph.Edge, bool) {
	for r.head < r.tail {
		ent := r.at(r.head)
		if ent.At > cutoff {
			break
		}
		r.head++
		if ent.Dead {
			continue
		}
		i, _ := r.find(edgeKey(ent.Edge))
		r.unlink(i)
		return ent.Edge, true
	}
	return graph.Edge{}, false
}

// Entries returns the pending (non-expired) entries oldest-first, dead ones
// included — exactly the state a snapshot must carry to resume
// bit-identically.
func (r *Ring) Entries() []Entry {
	out := make([]Entry, 0, r.tail-r.head)
	for s := r.head; s < r.tail; s++ {
		out = append(out, *r.at(s))
	}
	return out
}
