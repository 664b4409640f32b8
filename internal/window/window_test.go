package window

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		window  int64
		half    float64
		wantErr bool
	}{
		{"zero", 0, 0, false},
		{"window", 100, 0, false},
		{"halflife", 0, 2.5, false},
		{"both", 100, 2.5, true},
		{"negative-window", -1, 0, true},
		{"negative-halflife", 0, -1, true},
		{"nan-halflife", 0, math.NaN(), true},
	}
	for _, c := range cases {
		err := Spec{Window: c.window, Halflife: c.half}.Validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Validate() err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

func TestNewNormalizesInfiniteHalflife(t *testing.T) {
	s, err := New(0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsZero() {
		t.Errorf("New(0, +Inf) = %v, want the zero (whole-stream) spec", s)
	}
}

func TestSpecLambda(t *testing.T) {
	s := Spec{Halflife: 10}
	// After exactly one halflife the decay factor must be 1/2.
	if got := math.Exp(-s.Lambda() * 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("decay after one halflife = %v, want 0.5", got)
	}
	if got := (Spec{}).Lambda(); got != 0 {
		t.Errorf("zero spec Lambda() = %v, want 0", got)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		window, half string
		want         Spec
		wantErr      bool
	}{
		{"", "", Spec{}, false},
		{"inf", "", Spec{}, false},
		{"", "inf", Spec{}, false},
		{"500", "", Spec{Window: 500}, false},
		{"", "2.5", Spec{Halflife: 2.5}, false},
		{"500", "2.5", Spec{}, true},
		{"0", "", Spec{}, true},
		{"-3", "", Spec{}, true},
		{"abc", "", Spec{}, true},
		{"", "0", Spec{}, true},
		{"", "-1", Spec{}, true},
		{"", "NaN", Spec{}, true},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.window, c.half)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSpec(%q, %q) err = %v, wantErr %v", c.window, c.half, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSpec(%q, %q) = %v, want %v", c.window, c.half, got, c.want)
		}
	}
}

func TestRingBasic(t *testing.T) {
	var r Ring
	e1 := graph.NewEdge(1, 2)
	e2 := graph.NewEdge(2, 3)
	e3 := graph.NewEdge(3, 4)
	r.Push(e1, 1)
	r.Push(e2, 2)
	r.Push(e3, 3)
	if r.Len() != 3 || !r.Has(e2) {
		t.Fatalf("after 3 pushes: Len %d, Has(e2) %v", r.Len(), r.Has(e2))
	}
	// A genuine deletion kills e2; expiring past its tick must then skip it.
	if !r.Kill(e2) {
		t.Fatal("Kill(e2) = false, want true")
	}
	if r.Kill(e2) {
		t.Fatal("second Kill(e2) = true, want false")
	}
	got := []graph.Edge{}
	for {
		e, ok := r.ExpireOne(2)
		if !ok {
			break
		}
		got = append(got, e)
	}
	if len(got) != 1 || got[0] != e1 {
		t.Fatalf("expire through tick 2 popped %v, want just %v", got, e1)
	}
	if r.Len() != 1 || !r.Has(e3) {
		t.Fatalf("after expiry: Len %d, Has(e3) %v", r.Len(), r.Has(e3))
	}
}

func TestRingRepushMarksOldDead(t *testing.T) {
	var r Ring
	e := graph.NewEdge(1, 2)
	r.Push(e, 1)
	r.Kill(e)
	r.Push(e, 5)
	if r.Len() != 1 || !r.Has(e) {
		t.Fatalf("re-pushed edge not live: Len %d", r.Len())
	}
	// Expiring tick 1 hits the dead first entry, which must be skipped, not
	// returned — otherwise the still-live re-insertion would be subtracted.
	if _, ok := r.ExpireOne(1); ok {
		t.Fatal("expired a dead entry as live")
	}
	if e2, ok := r.ExpireOne(5); !ok || e2 != e {
		t.Fatalf("ExpireOne(5) = %v,%v, want %v,true", e2, ok, e)
	}
}

// ringModel is the trivial reference: a slice of (edge, tick, dead) scanned
// linearly. The property test drives Ring and the model with the same random
// operation sequence and demands identical observable behaviour.
type ringModel struct {
	entries []Entry
}

func (m *ringModel) has(e graph.Edge) bool {
	for _, ent := range m.entries {
		if !ent.Dead && ent.Edge == e {
			return true
		}
	}
	return false
}

func (m *ringModel) push(e graph.Edge, at int64) bool {
	if m.has(e) {
		return false
	}
	m.entries = append(m.entries, Entry{Edge: e, At: at})
	return true
}

func (m *ringModel) kill(e graph.Edge) bool {
	for i := range m.entries {
		if !m.entries[i].Dead && m.entries[i].Edge == e {
			m.entries[i].Dead = true
			return true
		}
	}
	return false
}

func (m *ringModel) expire(cutoff int64) []graph.Edge {
	var out []graph.Edge
	keep := m.entries[:0]
	for _, ent := range m.entries {
		if ent.At <= cutoff {
			if !ent.Dead {
				out = append(out, ent.Edge)
			}
			continue
		}
		keep = append(keep, ent)
	}
	m.entries = keep
	return out
}

// collidingEdges returns n edges whose hash lands in the top 1/16 of any
// index table of at least 16 slots: they all share one probe chain that
// starts in the table's last slot and wraps around to its start.
func collidingEdges(n int) []graph.Edge {
	var out []graph.Edge
	for u := graph.VertexID(1000); len(out) < n; u++ {
		e := graph.NewEdge(u, u+1)
		if (edgeKey(e)*hashMul)>>60 == 15 {
			out = append(out, e)
		}
	}
	return out
}

// indexStats records the probe-chain shapes a property run exercised, so the
// test can demand that it really hit the hard cases.
type indexStats struct {
	wrapped  int // a live slot sat before its home: its chain wrapped
	midChain int // a removal had to shift a later chain entry back
}

// checkIndex verifies the live index against the pending entries: every
// occupied slot names a pending live entry with its key, the probe from its
// home reaches it without crossing an empty slot, and the occupied count is
// Len. It also records what a removal of each slot would have to shift.
func checkIndex(t *testing.T, r *Ring, st *indexStats) {
	t.Helper()
	mask := uint64(len(r.idx) - 1)
	n := 0
	for i, sl := range r.idx {
		if sl.seq == 0 {
			continue
		}
		n++
		s := sl.seq - 1
		if s < r.head || s >= r.tail {
			t.Fatalf("slot %d names sequence %d outside pending [%d,%d)", i, s, r.head, r.tail)
		}
		if ent := r.at(s); ent.Dead || edgeKey(ent.Edge) != sl.key {
			t.Fatalf("slot %d names entry %+v, want live key %x", i, *ent, sl.key)
		}
		h := r.home(sl.key)
		for j := h; j != uint64(i); j = (j + 1) & mask {
			if r.idx[j].seq == 0 {
				t.Fatalf("slot %d (home %d) unreachable: empty slot %d in its chain", i, h, j)
			}
		}
		if uint64(i) < h {
			st.wrapped++
		}
		if r.idx[(uint64(i)+1)&mask].seq != 0 {
			st.midChain++
		}
	}
	if n != r.Len() {
		t.Fatalf("index holds %d slots, Len %d", n, r.Len())
	}
	if 4*n > 3*len(r.idx) {
		t.Fatalf("index load %d/%d above 3/4", n, len(r.idx))
	}
}

// replay rebuilds a ring from pending entries the way snapshot restore does:
// Push every entry in order, then Kill it again if it was dead.
func replay(entries []Entry) *Ring {
	var r Ring
	for _, ent := range entries {
		r.Push(ent.Edge, ent.At)
		if ent.Dead {
			r.Kill(ent.Edge)
		}
	}
	return &r
}

// TestRingExpiryOrderProperty runs randomized push/kill/expire histories
// against the linear-scan model: live membership, duplicate refusal, expiry
// output (order included — expiry replays deletions in insertion order), and
// pending snapshot entries must all agree. Half of the edges come from one
// colliding probe chain that wraps around the index end, so removals shift
// chain entries back across the wrap. Run under -race by the window-smoke
// job.
func TestRingExpiryOrderProperty(t *testing.T) {
	hot := collidingEdges(12)
	var st indexStats
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		var r Ring
		var m ringModel
		tick := int64(0)
		seen := map[graph.Edge]bool{}
		edge := func() graph.Edge {
			if rng.Intn(2) == 0 {
				return hot[rng.Intn(len(hot))]
			}
			u := graph.VertexID(rng.Intn(20))
			v := graph.VertexID(rng.Intn(20))
			for v == u {
				v = graph.VertexID(rng.Intn(20))
			}
			return graph.NewEdge(u, v)
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // push a random edge at the next tick
				e := edge()
				seen[e] = true
				if r.Has(e) != m.has(e) {
					t.Fatalf("trial %d step %d: Has(%v) ring %v model %v", trial, step, e, r.Has(e), m.has(e))
				}
				pending, live := len(r.Entries()), r.Len()
				ok := r.Push(e, tick+1)
				if want := m.push(e, tick+1); ok != want {
					t.Fatalf("trial %d step %d: Push(%v) ring %v model %v", trial, step, e, ok, want)
				}
				if !ok {
					// A refused push records nothing.
					if len(r.Entries()) != pending || r.Len() != live {
						t.Fatalf("trial %d step %d: refused Push(%v) changed the ring", trial, step, e)
					}
					continue
				}
				tick++
			case 6, 7: // genuine deletion of a random (possibly absent) edge
				e := edge()
				seen[e] = true
				if got, want := r.Kill(e), m.kill(e); got != want {
					t.Fatalf("trial %d step %d: Kill(%v) ring %v model %v", trial, step, e, got, want)
				}
			default: // expire a random prefix
				cutoff := tick - int64(rng.Intn(30))
				want := m.expire(cutoff)
				var got []graph.Edge
				for {
					e, ok := r.ExpireOne(cutoff)
					if !ok {
						break
					}
					got = append(got, e)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: expire(%d) popped %v, model %v", trial, step, cutoff, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d step %d: expire order diverged: ring %v model %v", trial, step, got, want)
					}
				}
			}
			if r.Len() != len(r.Entries())-deadCount(r.Entries()) {
				t.Fatalf("trial %d step %d: Len %d inconsistent with Entries", trial, step, r.Len())
			}
			checkIndex(t, &r, &st)
		}
		// The pending entries (what a snapshot would carry) must match the
		// model's surviving entries exactly, dead markers included.
		got, want := r.Entries(), m.entries
		if len(got) != len(want) {
			t.Fatalf("trial %d: Entries() len %d, model %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Entries()[%d] = %+v, model %+v", trial, i, got[i], want[i])
			}
		}
		// A ring rebuilt from those entries by Push/Kill replay (snapshot
		// restore) is indistinguishable: same entries, same membership.
		back := replay(got)
		if again := back.Entries(); len(again) != len(got) {
			t.Fatalf("trial %d: replayed ring holds %d entries, want %d", trial, len(again), len(got))
		} else {
			for i := range again {
				if again[i] != got[i] {
					t.Fatalf("trial %d: replayed Entries()[%d] = %+v, want %+v", trial, i, again[i], got[i])
				}
			}
		}
		for e := range seen {
			if back.Has(e) != r.Has(e) {
				t.Fatalf("trial %d: replayed Has(%v) = %v, ring %v", trial, e, back.Has(e), r.Has(e))
			}
		}
	}
	if st.wrapped == 0 || st.midChain == 0 {
		t.Fatalf("probe chains never wrapped (%d) or never continued past a slot (%d)", st.wrapped, st.midChain)
	}
}

// TestRingIndexWrapDeletion pins the backward-shift case by hand: a chain
// that starts in the index's last slot wraps to the front, and killing its
// first entry must shift every later entry back, across the wrap, without
// losing any of them.
func TestRingIndexWrapDeletion(t *testing.T) {
	hot := collidingEdges(5)
	var r Ring
	for i, e := range hot {
		if !r.Push(e, int64(i+1)) {
			t.Fatalf("Push(%v) refused", e)
		}
	}
	if r.Push(hot[2], 9) {
		t.Fatal("Push of a live edge accepted")
	}
	var st indexStats
	checkIndex(t, &r, &st)
	if st.wrapped == 0 {
		t.Fatal("colliding chain did not wrap around the index end")
	}
	if !r.Kill(hot[0]) {
		t.Fatalf("Kill(%v) = false", hot[0])
	}
	checkIndex(t, &r, &st)
	for _, e := range hot[1:] {
		if !r.Has(e) {
			t.Fatalf("%v lost by the backward shift", e)
		}
	}
	if r.Has(hot[0]) || r.Len() != len(hot)-1 {
		t.Fatalf("after Kill: Has(%v) %v, Len %d", hot[0], r.Has(hot[0]), r.Len())
	}
	// Expiry removes through the same shift: the dead head is skipped and
	// the next live one leaves the middle of the chain.
	if e, ok := r.ExpireOne(2); !ok || e != hot[1] {
		t.Fatalf("ExpireOne(2) = %v,%v, want %v,true", e, ok, hot[1])
	}
	checkIndex(t, &r, &st)
	for _, e := range hot[2:] {
		if !r.Has(e) {
			t.Fatalf("%v lost by expiry's backward shift", e)
		}
	}
}

func deadCount(entries []Entry) int {
	n := 0
	for _, ent := range entries {
		if ent.Dead {
			n++
		}
	}
	return n
}
