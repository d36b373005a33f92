package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/tibfit/tibfit/internal/engine"
	"github.com/tibfit/tibfit/internal/serve"
)

// serve-ingest: 8 tenants of 64 members whose T_out outlasts the run, so
// each tenant's window opens once and never closes; traffic is line-wire
// batches of 256 reports on two connections.
const (
	ingestTenants = 8
	ingestMembers = 64
	ingestTout    = 1e7 // virtual ms: far beyond any run
	ingestBatch   = 256
	// ingestJobBatches is the closed-loop job: 512 batches (131,072
	// reports), half on each connection.
	ingestJobBatches = 512
	// ingestRate is the open-loop rate in batches per second over both
	// connections (204,800 reports/s): about 1/15 of the request rate the
	// closed-loop job reaches on the reference host, so a host running at
	// half speed still keeps up and latency stays service time, not
	// backlog.
	ingestRate = 800
	// ingestBodies is how many distinct batches the seed generates; the
	// generator cycles through them.
	ingestBodies = 1024
)

func runServeIngest(o options, out *outcome) error {
	batches := ingestBatches(o.seed)
	return runServe(o, out, serveWorkload{
		tenants: tenantNames(ingestTenants),
		spec:    serve.TenantConfig{Tout: ingestTout, Nodes: ingestMembers, Shards: 1},
		route:   "serve.ingest_line",
		newSession: func(base string, log *spanLog) session {
			return newIngestSession(base, batches, log)
		},
		replay: func(out *outcome, log *spanLog) error {
			if err := replayIngest(out, log, batches, ingestMembers); err != nil {
				return err
			}
			return replayHandler(out, batches, ingestMembers, "/reports/batch", lineBody)
		},
	})
}

// batch is one ingest request: the tenant it goes to and its reports.
type batch struct {
	tenant int
	nodes  []int
}

// ingestBatches generates the seed's batches: tenants in rotation, each
// report a uniformly drawn member.
func ingestBatches(seed int64) []batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]batch, ingestBodies)
	for i := range out {
		nodes := make([]int, ingestBatch)
		for j := range nodes {
			nodes[j] = rng.Intn(ingestMembers)
		}
		out[i] = batch{tenant: i % ingestTenants, nodes: nodes}
	}
	return out
}

// lineBody renders a batch in the line wire format: one ID per line.
func lineBody(nodes []int) []byte {
	var b []byte
	for _, n := range nodes {
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, '\n')
	}
	return b
}

// ingestSession posts batches on two connections. Each connection keeps
// its own tallies; finish merges them.
type ingestSession struct {
	base    string
	urls    []string
	bodies  [][]byte
	batches []batch
	conns   [2]*ingestConn
}

type ingestConn struct {
	*conn
	next      int      // next batch index
	sent, bad int      // requests sent and failed
	reports   []uint64 // reports accepted, per tenant
}

func newIngestSession(base string, batches []batch, log *spanLog) *ingestSession {
	s := &ingestSession{base: base, batches: batches}
	for t := 0; t < ingestTenants; t++ {
		s.urls = append(s.urls, fmt.Sprintf("%s/v1/tenants/t%03d/reports/batch", base, t))
	}
	for _, b := range batches {
		s.bodies = append(s.bodies, lineBody(b.nodes))
	}
	for i := range s.conns {
		s.conns[i] = &ingestConn{conn: newConn(log), next: i, reports: make([]uint64, ingestTenants)}
	}
	return s
}

// post sends the connection's next batch and reports whether every
// report in it was accepted.
func (s *ingestSession) post(c *ingestConn) bool {
	b := s.batches[c.next%len(s.batches)]
	body := s.bodies[c.next%len(s.bodies)]
	c.next += len(s.conns)
	c.sent++
	status, reply, err := c.do(http.MethodPost, s.urls[b.tenant], "serve.ingest_line", body)
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(reply, &r)
	}
	if err != nil || status != http.StatusOK || r.Accepted != len(b.nodes) {
		c.bad++
		return false
	}
	c.reports[b.tenant] += uint64(r.Accepted)
	return true
}

func (s *ingestSession) job() error {
	var wg sync.WaitGroup
	for _, c := range s.conns {
		c := c
		loadgen(&wg, func() {
			for i := 0; i < ingestJobBatches/len(s.conns); i++ {
				s.post(c)
			}
		})
	}
	wg.Wait()
	return nil
}

func (s *ingestSession) openLoop(d time.Duration) (opsMS, lateMS []float64) {
	interval := time.Second * time.Duration(len(s.conns)) / ingestRate
	n := int(d / interval)
	start := time.Now().Add(time.Millisecond)
	ops := make([][]float64, len(s.conns))
	late := make([][]float64, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		i, c := i, c
		offset := interval * time.Duration(i) / time.Duration(len(s.conns))
		loadgen(&wg, func() {
			for k := 0; k < n; k++ {
				due := start.Add(offset + time.Duration(k)*interval)
				sleepUntil(due)
				late[i] = append(late[i], ms(time.Since(due)))
				ok := s.post(c)
				lat := ms(sinceDue(due, time.Now()))
				if !ok {
					lat = math.Inf(1)
				}
				ops[i] = append(ops[i], lat)
			}
		})
	}
	wg.Wait()
	return append(ops[0], ops[1]...), append(late[0], late[1]...)
}

func (s *ingestSession) finish(out *outcome) {
	want := make([]uint64, ingestTenants)
	for _, c := range s.conns {
		out.count(c.sent, c.bad, "ingest requests")
		for t, n := range c.reports {
			want[t] += n
		}
	}
	ctl := newConn(nil)
	defer ctl.close()
	counts, err := serverCounts(ctl, s.base)
	out.check(err == nil, "reading server counters: %v", err)
	for t := 0; t < ingestTenants && err == nil; t++ {
		got := counts[fmt.Sprintf("t%03d", t)]
		out.check(got.Reports == want[t], "tenant t%03d: server accepted %d reports, generator saw %d acknowledged", t, got.Reports, want[t])
		out.check(got.Decisions == 0, "tenant t%03d: %d decisions, want none (T_out outlasts the run)", t, got.Decisions)
	}
	for _, c := range s.conns {
		c.close()
	}
}

func (s *ingestSession) detail() map[string]any {
	return map[string]any{"batch_reports": ingestBatch, "open_loop_rate_batches_per_s": ingestRate}
}

// replayIngest drives the recorded batches straight into an engine
// instance (pass-through scheme, timing clock) on this goroutine and
// measures the engine's ingest cost per report: time and allocations.
func replayIngest(out *outcome, log *spanLog, batches []batch, members int) error {
	clock := newTimingClock(time.Millisecond, log)
	defer clock.Close()
	inst, err := engine.New(engine.Config{
		Scheme:  passThroughScheme,
		Params:  serveParams(),
		Tout:    ingestTout,
		Members: memberIDs(members),
		Clock:   clock,
	})
	if err != nil {
		return err
	}
	defer inst.Close()
	const rounds = 4
	for _, b := range batches { // warm-up
		inst.ReportMany(b.nodes)
	}
	reports, bad := 0, 0
	_, n0 := allocCounters()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range batches {
			res := inst.ReportMany(b.nodes)
			reports += len(b.nodes)
			if res.Accepted != len(b.nodes) {
				bad++
			}
		}
	}
	elapsed := time.Since(start)
	_, n1 := allocCounters()
	out.count(rounds*len(batches), bad, "replayed engine batches")
	out.set("engine.ingest_ns_per_report", "ns", float64(elapsed)/float64(reports))
	out.set("engine.allocs_per_report", "count", float64(n1-n0)/float64(reports))
	return nil
}

// replayHandler drives the recorded batches through the serving layer's
// handler directly, without a network, and measures allocations per
// request on the workload's ingest route.
func replayHandler(out *outcome, batches []batch, members int, route string, render func([]int) []byte) error {
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	if err := srv.CreateTenant("t000", serve.TenantConfig{Tout: ingestTout, Nodes: members}); err != nil {
		return err
	}
	h := srv.Handler()
	reqs := make([]*http.Request, 0, 2*len(batches))
	for i := 0; i < cap(reqs); i++ {
		body := render(batches[i%len(batches)].nodes)
		r, err := http.NewRequest(http.MethodPost, "http://bench/v1/tenants/t000"+route, bytes.NewReader(body))
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	w := &discardWriter{header: http.Header{}}
	warm := len(reqs) / 2
	for _, r := range reqs[:warm] {
		h.ServeHTTP(w, r)
	}
	bad := 0
	_, n0 := allocCounters()
	for _, r := range reqs[warm:] {
		w.status = 0
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			bad++
		}
	}
	_, n1 := allocCounters()
	measured := len(reqs) - warm
	out.count(measured, bad, "replayed handler requests")
	out.set("serve.allocs_per_batch", "count", float64(n1-n0)/float64(measured))
	return nil
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so handler replays count the serving layer's allocations, not
// a recorder's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

func memberIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
