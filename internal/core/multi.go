package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/reservoir"
	"repro/internal/stream"
	"repro/internal/weights"
)

// MultiConfig configures a multi-pattern WSD counter.
type MultiConfig struct {
	// M is the shared reservoir capacity. Must be at least the largest
	// pattern's size for every estimator to be unbiased (Theorem 4's
	// precondition M >= |H|, applied per pattern).
	M int
	// Patterns are the subgraph patterns counted side by side over the one
	// shared sample. Must be non-empty and free of duplicates. Patterns[0] is
	// the primary pattern: the one whose completion count and temporal
	// features form the MDP state the weight function sees (the sample is
	// maintained once, so there is one weight per edge, and it is tuned for
	// the primary pattern — the secondary estimates remain unbiased for any
	// positive weight function, by Theorem 4's per-pattern application).
	Patterns []pattern.Kind
	// Weight is the weight function W(e, R). Nil means uniform.
	Weight weights.Func
	// TemporalAgg selects the v_j aggregation for the primary pattern's
	// temporal features; the zero value is the paper's max aggregation.
	TemporalAgg TemporalAgg
	// Rng drives the rank randomization. Required. Pass an *xrand.Rand to
	// make the counter fully checkpointable.
	Rng Rand
	// SkipTemporal, as in Config: skip the primary pattern's temporal state
	// features when nothing consumes them.
	SkipTemporal bool
	// Policy, when non-nil, annotates Weight as a learned policy: it records
	// the parameters and identity of the WSD-L actor behind the weight
	// function. It is metadata only — sampling consults Weight — but
	// snapshots embed it (v4) so a restore can rebuild the same learned
	// weight function without the caller re-supplying the artifact. Leave nil
	// for heuristic weight functions.
	Policy *PolicyParams
	// EventWeight, as in Config: scales every pattern's contributions for an
	// event by a per-edge factor (partitioned deployments split attribution
	// across endpoint owners). Nil means full weight.
	EventWeight func(e graph.Edge) float64
}

func (c *MultiConfig) validate() error {
	if len(c.Patterns) == 0 {
		return fmt.Errorf("core: MultiConfig.Patterns is empty")
	}
	seen := make(map[pattern.Kind]bool, len(c.Patterns))
	for _, p := range c.Patterns {
		if !p.Valid() {
			return fmt.Errorf("core: MultiConfig names unknown pattern %d", int(p))
		}
		if seen[p] {
			return fmt.Errorf("core: MultiConfig lists %s twice", p)
		}
		seen[p] = true
		if c.M < p.Size() {
			return fmt.Errorf("core: M=%d is below pattern size |H|=%d for %s; the estimator requires M >= |H|", c.M, p.Size(), p)
		}
	}
	if c.Rng == nil {
		return fmt.Errorf("core: MultiConfig.Rng is required")
	}
	return nil
}

// multiEstimator is one pattern's estimator state inside a MultiCounter.
type multiEstimator struct {
	kind      pattern.Kind
	estimate  float64
	prods     []float64
	instances int
	// sinkSum holds this pattern's contributions when the event runs on a
	// fold path: the CliqueSink for clique kinds (see MultiCounter.sink), the
	// wedge fold (foldWedges) for the wedge.
	sinkSum float64
}

// MultiCounter is the multi-pattern WSD counter: one reservoir-maintained
// edge sample feeding P pattern estimators at once. Each event updates the
// sample once (one weight draw, one rank, one eviction decision) and walks
// the sampled adjacency once per pattern family — the clique patterns share a
// single common-neighborhood collection — so serving P patterns costs far
// less than P independent counters, which would each ingest, buffer, and
// sample the stream separately.
//
// Estimates are maintained side by side: Estimate() returns the primary
// (first) pattern's estimate, satisfying the same single-value surface as
// Counter; EstimateOf and Estimates expose the rest. Every estimate is
// unbiased by the same argument as the single-pattern counter: the inclusion
// probabilities of Lemma 1 are properties of the sample, not of the pattern,
// so Eq. (11)-(13) apply to each pattern independently over the shared
// sample.
//
// Like Counter, a MultiCounter is not safe for concurrent use and must not be
// copied after NewMulti: it holds internal callbacks bound to its own
// address.
type MultiCounter struct {
	cfg MultiConfig

	res        *reservoir.Reservoir
	tauP, tauQ float64
	insertions int64

	pats      []multiEstimator
	multi     *pattern.MultiCompleter
	insertFns []func(others []graph.Edge, payloads []any) bool
	deleteFns []func(others []graph.Edge, payloads []any) bool
	curEdge   graph.Edge

	// Primary-pattern MDP state scratch, mirroring Counter's.
	temporal []float64
	count    []int64
	arrivals []float64

	// CliqueSink fast path, mirroring Counter's: the clique kinds in the set
	// are folded straight into their estimators' sinkSum without materializing
	// instances, using the same per-common factor cache and accumulation order
	// as the single-pattern counter — the two must stay bit-identical, since
	// deployments compare a MultiCounter's primary estimate against a Counter
	// run on the same stream and seed. triIdx/fourIdx/fiveIdx map each sink
	// callback to its pattern slot (-1 when that kind is not in the set).
	sink                     pattern.CliqueSink
	gFac                     []float64
	arrA, arrB               []float64
	sinkTemporal             bool
	triIdx, fourIdx, fiveIdx int
	// wedgeIdx is the wedge's pattern slot (-1 when not counted). The wedge
	// runs on foldWedges, exactly as Counter's, so its insertFns/deleteFns
	// entries are nil and the completers skip it.
	wedgeIdx int

	lastState weights.State
}

// NewMulti returns a multi-pattern WSD counter for the given configuration.
func NewMulti(cfg MultiConfig) (*MultiCounter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Weight == nil {
		cfg.Weight = weights.Uniform()
	}
	cfg.Patterns = append([]pattern.Kind(nil), cfg.Patterns...)
	mc, err := pattern.NewMultiCompleter(cfg.Patterns)
	if err != nil {
		return nil, err
	}
	h := cfg.Patterns[0].Size()
	c := &MultiCounter{
		cfg:      cfg,
		res:      reservoir.New(cfg.M),
		pats:     make([]multiEstimator, len(cfg.Patterns)),
		multi:    mc,
		temporal: make([]float64, h),
		count:    make([]int64, h),
		arrivals: make([]float64, 0, h),
	}
	c.insertFns = make([]func([]graph.Edge, []any) bool, len(cfg.Patterns))
	c.deleteFns = make([]func([]graph.Edge, []any) bool, len(cfg.Patterns))
	c.triIdx, c.fourIdx, c.fiveIdx, c.wedgeIdx = -1, -1, -1, -1
	for i, p := range cfg.Patterns {
		c.pats[i].kind = p
		switch p {
		case pattern.Wedge:
			c.wedgeIdx = i
			continue
		case pattern.Triangle:
			c.triIdx = i
		case pattern.FourClique:
			c.fourIdx = i
		case pattern.FiveClique:
			c.fiveIdx = i
		}
		i := i
		c.insertFns[i] = func(others []graph.Edge, payloads []any) bool {
			return c.observeInsert(i, others, payloads)
		}
		c.deleteFns[i] = func(others []graph.Edge, payloads []any) bool {
			return c.observeDelete(i, others, payloads)
		}
	}
	c.sink = (*multiSink)(c)
	return c, nil
}

// Name identifies the algorithm for reports.
func (c *MultiCounter) Name() string { return "WSD-multi" }

// Patterns returns the counted patterns in estimator order (a copy).
func (c *MultiCounter) Patterns() []pattern.Kind {
	return append([]pattern.Kind(nil), c.cfg.Patterns...)
}

// Estimate returns the primary (first) pattern's estimate, making the
// MultiCounter drop-in wherever a single-estimate Counter is expected
// (pipeline.Processor, shard.Ensemble).
func (c *MultiCounter) Estimate() float64 { return c.pats[0].estimate }

// EstimateOf returns the estimate for pattern p, and whether p is counted.
func (c *MultiCounter) EstimateOf(p pattern.Kind) (float64, bool) {
	for i := range c.pats {
		if c.pats[i].kind == p {
			return c.pats[i].estimate, true
		}
	}
	return 0, false
}

// Estimates returns every pattern's estimate in Patterns order (a copy).
func (c *MultiCounter) Estimates() []float64 {
	return c.EstimatesInto(nil)
}

// NumEstimates returns the number of side-by-side estimates (the pattern
// count); with EstimatesInto it forms the vector-publication surface the
// ingestion layers use.
func (c *MultiCounter) NumEstimates() int { return len(c.pats) }

// EstimatesInto appends every pattern's estimate to dst in Patterns order and
// returns it, allocation-free when dst has the capacity.
func (c *MultiCounter) EstimatesInto(dst []float64) []float64 {
	for i := range c.pats {
		dst = append(dst, c.pats[i].estimate)
	}
	return dst
}

// SampleSize returns the current number of sampled edges.
func (c *MultiCounter) SampleSize() int { return c.res.Len() }

// Thresholds returns the current (tau_p, tau_q) pair.
func (c *MultiCounter) Thresholds() (tauP, tauQ float64) { return c.tauP, c.tauQ }

// LastState returns the MDP state computed for the most recent insertion
// event, built from the primary pattern. The Temporal slice is reused across
// events; callers that retain it must copy.
func (c *MultiCounter) LastState() weights.State { return c.lastState }

// Reservoir exposes the shared reservoir for analysis. Callers must not
// mutate it.
func (c *MultiCounter) Reservoir() *reservoir.Reservoir { return c.res }

// Process consumes one stream event, updating every pattern's estimate per
// Algorithm 2 and then the shared sample per Algorithm 1. Infeasible events
// are ignored defensively.
func (c *MultiCounter) Process(ev stream.Event) {
	if ev.Edge.IsLoop() {
		return
	}
	switch ev.Op {
	case stream.Insert:
		c.insert(ev.Edge)
	case stream.Delete:
		c.delete(ev.Edge)
	}
}

// ProcessBatch consumes a slice of events in order, semantically identical to
// calling Process once per event (the ingestion layers' batched fast path).
func (c *MultiCounter) ProcessBatch(evs []stream.Event) {
	for _, ev := range evs {
		c.Process(ev)
	}
}

// payloadItem resolves an enumeration payload to its reservoir item, exactly
// as Counter.payloadItem.
func (c *MultiCounter) payloadItem(p any, oe graph.Edge) *reservoir.Item {
	if it, ok := p.(*reservoir.Item); ok {
		return it
	}
	it, ok := c.res.Get(oe)
	if !ok {
		panic(fmt.Sprintf("core: enumerated edge %v missing from reservoir", oe))
	}
	return it
}

// observeInsert accumulates pattern i's inverse-probability product for one
// completed instance (Eq. 11); for the primary pattern it also extracts the
// temporal state features, mirroring Counter.observeInsert.
func (c *MultiCounter) observeInsert(i int, others []graph.Edge, payloads []any) bool {
	p := &c.pats[i]
	prod := 1.0
	tq := c.tauQ
	if i != 0 || c.cfg.SkipTemporal {
		for j, pay := range payloads {
			it := c.payloadItem(pay, others[j])
			if x := tq / it.Weight; x > 1 {
				prod *= x
			}
		}
	} else {
		arr := c.arrivals[:0]
		for j, pay := range payloads {
			it := c.payloadItem(pay, others[j])
			if x := tq / it.Weight; x > 1 {
				prod *= x
			}
			arr = append(arr, float64(it.Arrival))
		}
		sort.Float64s(arr)
		for j, a := range arr {
			switch c.cfg.TemporalAgg {
			case AggMax:
				if a > c.temporal[j] {
					c.temporal[j] = a
				}
			case AggAvg:
				c.temporal[j] += a
			}
			c.count[j]++
		}
	}
	p.prods = append(p.prods, prod)
	p.instances++
	return true
}

// observeDelete accumulates pattern i's destroyed-instance contribution
// (Eq. 12).
func (c *MultiCounter) observeDelete(i int, others []graph.Edge, payloads []any) bool {
	p := &c.pats[i]
	prod := 1.0
	tq := c.tauQ
	for j, pay := range payloads {
		it := c.payloadItem(pay, others[j])
		if x := tq / it.Weight; x > 1 {
			prod *= x
		}
	}
	p.prods = append(p.prods, prod)
	return true
}

func (c *MultiCounter) insert(e graph.Edge) {
	if _, ok := c.res.Get(e); ok {
		// Infeasible duplicate insertion; the problem definition forbids it.
		return
	}
	c.insertions++
	tk := c.insertions
	h := c.cfg.Patterns[0].Size()

	for j := range c.temporal {
		c.temporal[j] = 0
		c.count[j] = 0
	}
	for i := range c.pats {
		c.pats[i].instances = 0
		c.pats[i].prods = c.pats[i].prods[:0]
	}
	c.curEdge = e
	// One enumeration pass over the shared sample: every pattern's instances
	// are observed against the same reservoir state, with the clique kinds
	// sharing the common-neighborhood collection. When the reservoir supports
	// sorted intersection (always, for the counter's own reservoir), the
	// clique kinds run on the zero-materialization sink path; the wedge runs
	// on foldWedges and the 4-cycle goes through its insertFns.
	c.sinkTemporal = !c.cfg.SkipTemporal && c.pats[0].kind.IsClique()
	c.gFac, c.arrA, c.arrB = c.gFac[:0], c.arrA[:0], c.arrB[:0]
	for i := range c.pats {
		c.pats[i].sinkSum = 0
	}
	if w := c.wedgeIdx; w >= 0 {
		var temporal []float64
		if w == 0 && !c.cfg.SkipTemporal {
			temporal = c.temporal
		}
		p := &c.pats[w]
		p.sinkSum, p.instances = foldWedges(c.res, e, c.tauQ, c.cfg.TemporalAgg, temporal, c.count)
	}
	usedSink := c.multi.ForEachWithSink(c.res, e.U, e.V, c.insertFns, c.sink)
	if !usedSink {
		c.multi.ForEach(c.res, e.U, e.V, c.insertFns)
	}
	c.apply(e, usedSink, +1)
	instances := c.pats[0].instances
	if !c.cfg.SkipTemporal {
		if c.cfg.TemporalAgg == AggAvg {
			for j := 0; j < h-1; j++ {
				if c.count[j] > 0 {
					c.temporal[j] /= float64(c.count[j])
				}
			}
		}
		if instances > 0 {
			c.temporal[h-1] = float64(tk)
		} else {
			c.temporal[h-1] = 0
		}
	}

	c.lastState = weights.State{
		Instances: instances,
		DegU:      c.res.Degree(e.U),
		DegV:      c.res.Degree(e.V),
		Temporal:  c.temporal,
		Now:       tk,
	}

	// Algorithm 1, insert(e), identical to Counter.insert: one weight, one
	// rank, one sampling decision for all P estimators.
	w := weights.Sanitize(c.cfg.Weight(c.lastState))
	u := 1 - c.cfg.Rng.Float64() // uniform in (0, 1]
	rank := w / u

	if !c.res.Full() {
		if rank > c.tauP {
			c.res.PushValue(e, w, rank, tk)
		}
		return
	}
	em := c.res.Min()
	c.tauP = em.Rank
	switch {
	case rank > c.tauP:
		c.res.PopMin()
		c.res.PushValue(e, w, rank, tk)
		c.tauQ = c.tauP
	case rank > c.tauQ:
		c.tauQ = rank
	}
}

func (c *MultiCounter) delete(e graph.Edge) {
	for i := range c.pats {
		c.pats[i].prods = c.pats[i].prods[:0]
		c.pats[i].sinkSum = 0
	}
	c.curEdge = e
	c.sinkTemporal = false
	c.gFac = c.gFac[:0]
	if w := c.wedgeIdx; w >= 0 {
		c.pats[w].sinkSum, _ = foldWedges(c.res, e, c.tauQ, c.cfg.TemporalAgg, nil, nil)
	}
	usedSink := c.multi.ForEachWithSink(c.res, e.U, e.V, c.deleteFns, c.sink)
	if !usedSink {
		c.multi.ForEach(c.res, e.U, e.V, c.deleteFns)
	}
	c.apply(e, usedSink, -1)
	c.res.Remove(e)
}

// apply adds (sign +1, insertion) or subtracts (sign -1, deletion) every
// pattern's event sum, scaled by the event weight. Folded kinds — the wedge,
// and the clique kinds when the sink ran — carry their sum in sinkSum; the
// rest fold their collected prods in sorted order.
func (c *MultiCounter) apply(e graph.Edge, usedSink bool, sign float64) {
	scale := 1.0
	if c.cfg.EventWeight != nil {
		scale = c.cfg.EventWeight(e)
	}
	for i := range c.pats {
		p := &c.pats[i]
		sum := p.sinkSum
		if p.kind != pattern.Wedge && !(usedSink && p.kind.IsClique()) {
			sum = sumSorted(p.prods)
		}
		p.estimate += sign * (scale * sum)
	}
}

// multiSink is MultiCounter's pattern.CliqueSink implementation, the
// multi-pattern mirror of counterSink: one OnCommon pass caches the shared
// per-common factors, then each clique kind's instances are folded into its
// own estimator's sinkSum as the shared enumeration discovers them. The
// per-instance arithmetic and accumulation order are identical to
// counterSink's, so a MultiCounter's clique estimates stay bit-identical to a
// Counter's on the same stream.
type multiSink MultiCounter

func (s *multiSink) OnCommon(i int, w graph.VertexID, payA, payB any) {
	c := (*MultiCounter)(s)
	ia := payA.(*reservoir.Item)
	ib := payB.(*reservoir.Item)
	tq := c.tauQ
	g := 1.0
	if x := tq * ia.InvWeight(); x > 1 {
		g *= x
	}
	if x := tq * ib.InvWeight(); x > 1 {
		g *= x
	}
	c.gFac = append(c.gFac, g)
	if c.sinkTemporal {
		c.arrA = append(c.arrA, float64(ia.Arrival))
		c.arrB = append(c.arrB, float64(ib.Arrival))
	}
}

func (s *multiSink) OnTriangle(i int) bool {
	c := (*MultiCounter)(s)
	p := &c.pats[c.triIdx]
	p.sinkSum += c.gFac[i]
	p.instances++
	if c.sinkTemporal && c.triIdx == 0 {
		c.foldArrivals(append(c.arrivals[:0], c.arrA[i], c.arrB[i]))
	}
	return true
}

func (s *multiSink) OnPair(i, j int, payIJ any) bool {
	c := (*MultiCounter)(s)
	p := &c.pats[c.fourIdx]
	it := payIJ.(*reservoir.Item)
	prod := c.gFac[i] * c.gFac[j]
	if x := c.tauQ * it.InvWeight(); x > 1 {
		prod *= x
	}
	p.sinkSum += prod
	p.instances++
	if c.sinkTemporal && c.fourIdx == 0 {
		c.foldArrivals(append(c.arrivals[:0],
			c.arrA[i], c.arrB[i], c.arrA[j], c.arrB[j], float64(it.Arrival)))
	}
	return true
}

func (s *multiSink) OnTriple(i, j, k int, payIJ, payIK, payJK any) bool {
	c := (*MultiCounter)(s)
	p := &c.pats[c.fiveIdx]
	iij := payIJ.(*reservoir.Item)
	iik := payIK.(*reservoir.Item)
	ijk := payJK.(*reservoir.Item)
	tq := c.tauQ
	prod := c.gFac[i] * c.gFac[j] * c.gFac[k]
	if x := tq * iij.InvWeight(); x > 1 {
		prod *= x
	}
	if x := tq * iik.InvWeight(); x > 1 {
		prod *= x
	}
	if x := tq * ijk.InvWeight(); x > 1 {
		prod *= x
	}
	p.sinkSum += prod
	p.instances++
	if c.sinkTemporal && c.fiveIdx == 0 {
		c.foldArrivals(append(c.arrivals[:0],
			c.arrA[i], c.arrB[i], c.arrA[j], c.arrB[j], c.arrA[k], c.arrB[k],
			float64(iij.Arrival), float64(iik.Arrival), float64(ijk.Arrival)))
	}
	return true
}

// foldArrivals sorts one instance's arrival indexes and aggregates them into
// the primary pattern's temporal state features, exactly as observeInsert's
// inline path (and Counter.foldArrivals).
func (c *MultiCounter) foldArrivals(arr []float64) {
	sort.Float64s(arr)
	for j, a := range arr {
		switch c.cfg.TemporalAgg {
		case AggMax:
			if a > c.temporal[j] {
				c.temporal[j] = a
			}
		case AggAvg:
			c.temporal[j] += a
		}
		c.count[j]++
	}
}
