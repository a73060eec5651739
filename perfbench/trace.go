package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atf/internal/core"
)

// spanRec is one recorded span. Spans of one request (an evaluation of
// the library workloads, a session of atfd-warm) share Req. A rolled-up
// record stands for Count calls under Parent that were too frequent to
// keep one by one (the per-configuration technique and cost calls of a
// 2.9M-configuration sweep); it carries their summed duration in BusyNs
// and no interval.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	Count  int64  `json:"count,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

func (r spanRec) dur() time.Duration { return time.Duration(r.End - r.Start) }

// spanLog keeps one repetition's spans in memory until the repetition
// ends. A nil *spanLog records nothing, so untraced runs pay one nil check
// per boundary and take no clock readings of their own.
type spanLog struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
	rolls []*rollup
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// span is an open span; a nil *span (from a nil log) is a no-op.
type span struct {
	log *spanLog
	rec spanRec
}

func (l *spanLog) start(name, req string, parent int64) *span {
	if l == nil {
		return nil
	}
	return &span{log: l, rec: spanRec{
		ID: l.ids.Add(1), Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(l.t0)),
	}}
}

// record adds a span whose interval the caller measured itself and
// returns its id.
func (l *spanLog) record(name, req string, parent int64, start time.Time, d time.Duration) int64 {
	if l == nil {
		return 0
	}
	s := int64(start.Sub(l.t0))
	id := l.ids.Add(1)
	l.add(spanRec{ID: id, Parent: parent, Name: name, Req: req, Start: s, End: s + int64(d)})
	return id
}

func (l *spanLog) add(r spanRec) {
	l.mu.Lock()
	l.spans = append(l.spans, r)
	l.mu.Unlock()
}

func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.log.t0))
	s.log.add(s.rec)
}

// rollup accumulates the calls of one hot boundary under one parent span.
type rollup struct {
	name   string
	parent int64
	n, ns  atomic.Int64
}

func (l *spanLog) rollup(name string, parent int64) *rollup {
	r := &rollup{name: name, parent: parent}
	l.mu.Lock()
	l.rolls = append(l.rolls, r)
	l.mu.Unlock()
	return r
}

func (r *rollup) observe(d time.Duration) {
	r.n.Add(1)
	r.ns.Add(int64(d))
}

// records returns every span, rolled-up ones included, ordered by start.
func (l *spanLog) records() []spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]spanRec(nil), l.spans...)
	for _, r := range l.rolls {
		out = append(out, spanRec{ID: l.ids.Add(1), Parent: r.parent, Name: r.name,
			Count: r.n.Load(), BusyNs: r.ns.Load()})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range l.records() {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is how much of parent's interval the children's intervals
// cover, overlaps counted once; a span's self time is its duration minus
// this.
func covered(parent spanRec, children []spanRec) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// The decorators below time calls into a layer from outside it. Each one
// forwards every optional interface of what it wraps, because the
// exploration engine picks its path by type assertion: a decorator that
// hid BatchTechnique, CostOblivious, CloneableCostFunction or io.Closer
// would make the traced run take another path than the untraced one.

type timedTechnique struct {
	core.Technique
	next, report *rollup
}

func (t *timedTechnique) GetNextConfig() *core.Config {
	s := time.Now()
	c := t.Technique.GetNextConfig()
	t.next.observe(time.Since(s))
	return c
}

func (t *timedTechnique) ReportCost(c core.Cost) {
	s := time.Now()
	t.Technique.ReportCost(c)
	t.report.observe(time.Since(s))
}

// timedBatch adds the batch methods; it holds no Initialize/Finalize of
// its own so that embedding it beside timedTechnique stays unambiguous.
type timedBatch struct {
	bt           core.BatchTechnique
	next, report *rollup
}

func (b timedBatch) GetNextBatch(n int) []*core.Config {
	s := time.Now()
	cs := b.bt.GetNextBatch(n)
	b.next.observe(time.Since(s))
	return cs
}

func (b timedBatch) ReportCosts(evals []core.Evaluation) {
	s := time.Now()
	b.bt.ReportCosts(evals)
	b.report.observe(time.Since(s))
}

// oblivious forwards CostOblivious. (An embedded core.CostOblivious
// field would not: its field name would shadow the method.)
type oblivious struct{ co core.CostOblivious }

func (o oblivious) CostOblivious() bool { return o.co.CostOblivious() }

// traceTechnique times the technique's proposal (GetNextConfig /
// GetNextBatch, configuration decode included) and report calls.
func traceTechnique(t core.Technique, next, report *rollup) core.Technique {
	base := &timedTechnique{Technique: t, next: next, report: report}
	bt, isBatch := t.(core.BatchTechnique)
	co, isOblivious := t.(core.CostOblivious)
	batch := timedBatch{bt: bt, next: next, report: report}
	obl := oblivious{co}
	switch {
	case isBatch && isOblivious:
		return struct {
			*timedTechnique
			timedBatch
			oblivious
		}{base, batch, obl}
	case isBatch:
		return struct {
			*timedTechnique
			timedBatch
		}{base, batch}
	case isOblivious:
		return struct {
			*timedTechnique
			oblivious
		}{base, obl}
	}
	return base
}

type timedCost struct {
	inner   core.CostFunction
	observe func(start time.Time, d time.Duration, err error)
}

func (f *timedCost) Cost(cfg *core.Config) (core.Cost, error) {
	s := time.Now()
	c, err := f.inner.Cost(cfg)
	f.observe(s, time.Since(s), err)
	return c, err
}

type timedCloneableCost struct{ *timedCost }

func (f timedCloneableCost) Clone() (core.CostFunction, error) {
	c, err := f.inner.(core.CloneableCostFunction).Clone()
	if err != nil {
		return nil, err
	}
	return traceCost(c, f.observe), nil
}

// traceCost reports every cost-function call to observe.
func traceCost(cf core.CostFunction, observe func(start time.Time, d time.Duration, err error)) core.CostFunction {
	t := &timedCost{inner: cf, observe: observe}
	if _, ok := cf.(core.CloneableCostFunction); ok {
		return timedCloneableCost{t}
	}
	return t
}

type countedCost struct {
	inner core.CostFunction
	done  func()
}

func (f *countedCost) Cost(cfg *core.Config) (core.Cost, error) {
	c, err := f.inner.Cost(cfg)
	f.done()
	return c, err
}

type countedCloneableCost struct{ *countedCost }

func (f countedCloneableCost) Clone() (core.CostFunction, error) {
	c, err := f.inner.(core.CloneableCostFunction).Clone()
	if err != nil {
		return nil, err
	}
	return countCost(c, f.done), nil
}

// countCost calls done after every cost-function call. Unlike traceCost
// it reads no clock, so untraced runs can use it on a zero-cost function.
func countCost(cf core.CostFunction, done func()) core.CostFunction {
	c := &countedCost{inner: cf, done: done}
	if _, ok := cf.(core.CloneableCostFunction); ok {
		return countedCloneableCost{c}
	}
	return c
}

type timedEvaluator struct {
	inner   core.BatchEvaluator
	log     *spanLog
	session string
}

func (e *timedEvaluator) EvaluateBatch(ctx context.Context, batchIndex uint64, batch []*core.Config) ([]core.Outcome, error) {
	s := time.Now()
	out, err := e.inner.EvaluateBatch(ctx, batchIndex, batch)
	e.log.record("dist.evaluate", e.session, 0, s, time.Since(s))
	return out, err
}

// traceEvaluator records one dist.evaluate span per batch, tagged with
// the session it belongs to.
func traceEvaluator(ev core.BatchEvaluator, log *spanLog, session string) core.BatchEvaluator {
	t := &timedEvaluator{inner: ev, log: log, session: session}
	if c, ok := ev.(io.Closer); ok {
		return struct {
			*timedEvaluator
			io.Closer
		}{t, c}
	}
	return t
}
