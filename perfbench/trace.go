package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/engine"
	"github.com/tibfit/tibfit/internal/sim"
)

// The traced run's instrumentation lives entirely in this package: spans
// are recorded around calls into the program's public functions, never
// inside it.

// span is one timed interval at a layer boundary. Parent is the ID of the
// span that caused it (0 for none): a handler span names the client
// request that carried it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's start
	Dur    int64  `json:"dur_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted, not
// kept, and a name's samples then come from the earlier part of the run.
const maxSpans = 1 << 20

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span ID, for a span whose children start before it
// ends.
func (l *spanLog) newID() uint64 { return l.nextID.Add(1) }

func (l *spanLog) add(id, parent uint64, name string, start time.Time, d time.Duration) {
	if id == 0 {
		id = l.newID()
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(l.t0)), Dur: int64(d)})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// durations returns the durations of the named spans, in microseconds.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e3)
		}
	}
	return out
}

// write dumps the spans as JSON lines into dir (nothing when dir is
// empty) and returns the file written.
func (l *spanLog) write(dir, stem string) (string, error) {
	if dir == "" {
		return "", nil
	}
	path := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sampler keeps a bounded, evenly thinned record of a hot call's
// durations: it records every stride-th call and, when full, halves its
// samples and doubles the stride.
type sampler struct {
	mu     sync.Mutex
	calls  uint64
	stride uint64
	xs     []float64
}

const samplerCap = 1 << 16

// due reports whether this call should be timed; every call is counted.
func (s *sampler) due() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.stride == 0 {
		s.stride = 1
	}
	return s.calls%s.stride == 0
}

// record keeps one timed call's duration, measured from start, less the
// cost of the clock reads around it.
func (s *sampler) record(start time.Time) {
	d := time.Since(start) - clockCost()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.xs) == samplerCap {
		for i := 0; i < samplerCap/2; i++ {
			s.xs[i] = s.xs[2*i]
		}
		s.xs = s.xs[:samplerCap/2]
		s.stride *= 2
	}
	s.xs = append(s.xs, float64(d))
}

func (s *sampler) median() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.xs)
}

func (s *sampler) count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// clockCost is the median cost of the pair of clock reads that time a
// call, measured once.
var clockCost = sync.OnceValue(func() time.Duration {
	xs := make([]float64, 1001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
})

// timingHandler wraps the serving layer's http.Handler and records one
// span per request, named after the route, parented by the client span
// the load generator sends in spanHeader.
type timingHandler struct {
	next http.Handler
	log  *spanLog
}

const spanHeader = "X-Perfbench-Span"

func (h timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	h.log.add(0, parent, routeSpan(r), start, d)
}

// routeSpan names a request's handler span after its endpoint.
func routeSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/reports/batch"):
		return "serve.ingest_line"
	case strings.HasSuffix(p, "/reports"):
		return "serve.ingest_json"
	case strings.HasSuffix(p, "/decisions"):
		return "serve.poll"
	case strings.HasSuffix(p, "/snapshot"):
		return "serve.snapshot"
	}
	return "serve.other"
}

// timingClock is an engine.Clock over a WallClock that times every expiry
// callback ("engine.expiry") and how late it fired against the deadline
// it was scheduled for ("wallclock.late", from deadline to start).
type timingClock struct {
	wc   *engine.WallClock
	unit time.Duration
	log  *spanLog
}

func newTimingClock(unit time.Duration, log *spanLog) *timingClock {
	return &timingClock{wc: engine.NewWallClock(unit), unit: unit, log: log}
}

func (c *timingClock) Now() sim.Time { return c.wc.Now() }

func (c *timingClock) AfterFunc(d sim.Duration, fn func()) {
	due := time.Now()
	if d > 0 {
		due = due.Add(time.Duration(float64(d) * float64(c.unit)))
	}
	c.wc.AfterFunc(d, func() {
		start := time.Now()
		fn()
		end := time.Now()
		c.log.add(0, 0, "wallclock.late", due, start.Sub(due))
		c.log.add(0, 0, "engine.expiry", start, end.Sub(start))
	})
}

func (c *timingClock) Close() { c.wc.Close() }

// passThroughScheme is registered in the decision registry under this
// name. It forwards every call to a TIBFIT scheme and times Arbitrate,
// Judge and (sampled) Weight, so replays and traced campaigns measure the
// decision layer without changing a single verdict.
const passThroughScheme = "perfbench-tibfit"

var decisionStats struct {
	arbitrate, judge, weight sampler
	other                    atomic.Uint64
}

var registerOnce sync.Once

func registerPassThrough() {
	registerOnce.Do(func() {
		decision.Register(passThroughScheme, decision.Title(decision.SchemeTIBFIT), func(p decision.Params) (decision.Scheme, error) {
			inner, err := decision.New(decision.SchemeTIBFIT, p)
			if err != nil {
				return nil, err
			}
			st, ok := inner.(decision.Stateful)
			if !ok {
				return nil, fmt.Errorf("perfbench: scheme %q keeps no trust state to forward", decision.SchemeTIBFIT)
			}
			return &passThrough{inner: inner, state: st}, nil
		})
	})
}

type passThrough struct {
	inner decision.Scheme
	state decision.Stateful
}

func (p *passThrough) Name() string { return p.inner.Name() }

func (p *passThrough) Weight(node int) float64 {
	if !decisionStats.weight.due() {
		return p.inner.Weight(node)
	}
	start := time.Now()
	w := p.inner.Weight(node)
	decisionStats.weight.record(start)
	return w
}

func (p *passThrough) Judge(node int, correct bool) {
	if !decisionStats.judge.due() {
		p.inner.Judge(node, correct)
		return
	}
	start := time.Now()
	p.inner.Judge(node, correct)
	decisionStats.judge.record(start)
}

func (p *passThrough) Isolated(node int) bool {
	decisionStats.other.Add(1)
	return p.inner.Isolated(node)
}

func (p *passThrough) TI(node int) float64 {
	decisionStats.other.Add(1)
	return p.inner.TI(node)
}

func (p *passThrough) IsolatedNodes() []int {
	decisionStats.other.Add(1)
	return p.inner.IsolatedNodes()
}

func (p *passThrough) Arbitrate(reporters, silent []int) core.BinaryDecision {
	if !decisionStats.arbitrate.due() {
		return p.inner.Arbitrate(reporters, silent)
	}
	start := time.Now()
	d := p.inner.Arbitrate(reporters, silent)
	decisionStats.arbitrate.record(start)
	return d
}

func (p *passThrough) Snapshot() map[int]core.Record { return p.state.Snapshot() }
func (p *passThrough) Restore(m map[int]core.Record) { p.state.Restore(m) }

// setDecisionStats prints the pass-through scheme's figures.
func (o *outcome) setDecisionStats() {
	s := &decisionStats
	o.set("decision.arbitrate_us", "us", s.arbitrate.median()/1e3)
	o.set("decision.judge_us", "us", s.judge.median()/1e3)
	o.set("decision.weight_ns", "ns", s.weight.median())
	calls := s.arbitrate.count() + s.judge.count() + s.weight.count() + s.other.Load()
	o.set("decision.calls", "count", float64(calls))
}

// allocCounters reads the process's cumulative heap allocation, in bytes
// and objects.
func allocCounters() (bytes, objects uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
