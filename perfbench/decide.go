package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/engine"
	"github.com/tibfit/tibfit/internal/serve"
)

// serve-decide: 256 tenants of 16 members with a 20 ms T_out. Each tenant
// receives one event burst (a JSON POST) per period, 512 bursts/s in
// all, about 1/8 of the closed-loop job's rate on the reference host.
// Members report with a fixed probability, and the last quarter of every
// tenant's members never report, so the vote judges them faulty until
// they are isolated.
const (
	decideTenants    = 256
	decideMembers    = 16
	decideQuiet      = 4 // members 12-15 stay silent
	decideTout       = 20
	decidePeriod     = 500 * time.Millisecond
	decideReportProb = 0.97
	// decideDupProb is the chance a report is sent twice in its burst;
	// the aggregator must deduplicate it.
	decideDupProb = 0.1
	// Polling: the poller first polls a burst at its deadline (ack +
	// T_out), then retries every decidePollRetry; a burst whose decision
	// has not shown within decideTimeout is a failed operation.
	decidePollRetry = 100 * time.Microsecond
	decideTimeout   = 2 * time.Second
	// snapshotEvery is the period of the snapshot GET/PUT on tenant t000
	// during the open-loop phase.
	snapshotEvery = 2 * time.Second
	// decideReplay is how long the engine replay runs.
	decideReplay = 2 * time.Second
)

func runServeDecide(o options, out *outcome) error {
	return runServe(o, out, serveWorkload{
		tenants: tenantNames(decideTenants),
		spec:    serve.TenantConfig{Tout: decideTout, Nodes: decideMembers, Shards: 1},
		route:   "serve.ingest_json",
		newSession: func(base string, log *spanLog) session {
			return newDecideSession(base, o.seed, log)
		},
		replay: func(out *outcome, log *spanLog) error {
			g := newBurstGen(o.seed)
			var batches []batch
			for i := 0; i < 2048; i++ {
				batches = append(batches, batch{tenant: i % decideTenants, nodes: g.next(i % decideTenants).nodes})
			}
			if err := replayIngest(out, log, batches, decideMembers); err != nil {
				return err
			}
			if err := replayHandler(out, batches, decideMembers, "/reports", jsonBody); err != nil {
				return err
			}
			return replayDecide(out, log, o.seed)
		},
	})
}

// serveParams are the serving layer's default trust parameters.
func serveParams() decision.Params {
	return decision.Params{Trust: core.Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.3}}
}

// burst is one event's reports to one tenant.
type burst struct {
	tenant int
	nodes  []int // as sent: shuffled, with duplicates
	want   []int // the deduplicated, sorted reporter set

	sentAt, firstPoll, nextPoll time.Time
	timed                       bool // open-loop: record its latency
	resolved                    bool
}

// burstGen draws bursts from the seed.
type burstGen struct {
	rng *rand.Rand
}

func newBurstGen(seed int64) *burstGen { return &burstGen{rng: rand.New(rand.NewSource(seed))} }

func (g *burstGen) next(tenant int) *burst {
	b := &burst{tenant: tenant}
	for m := 0; m < decideMembers-decideQuiet; m++ {
		if g.rng.Float64() >= decideReportProb {
			continue
		}
		b.want = append(b.want, m)
		b.nodes = append(b.nodes, m)
		if g.rng.Float64() < decideDupProb {
			b.nodes = append(b.nodes, m)
		}
	}
	if len(b.want) == 0 {
		b.want, b.nodes = []int{0}, []int{0}
	}
	g.rng.Shuffle(len(b.nodes), func(i, j int) { b.nodes[i], b.nodes[j] = b.nodes[j], b.nodes[i] })
	return b
}

// jsonBody renders a burst as the JSON ingest body.
func jsonBody(nodes []int) []byte {
	b := []byte(`{"nodes":[`)
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']', '}', '\n')
}

// decideSession sends bursts on one connection and follows the decision
// stream on the other. The sender hands each acknowledged burst to the
// poller, which polls its tenant at the burst's deadline and then at
// short retries until the decision shows, and checks it.
type decideSession struct {
	base string
	gen  *burstGen
	send *conn
	poll *conn

	queue  chan *burst
	wg     sync.WaitGroup // outstanding bursts
	pollWG sync.WaitGroup // the poller goroutine

	// Sender-side tallies.
	sent, sendBad int
	reportsSent   []uint64
	burstsSent    []uint64
	ackMS         []float64

	// Poller-side state and tallies.
	lastSeq        []uint64
	pending        [][]*burst
	isolated       []map[int]bool // per tenant, as last read from the server
	dropped        int            // reports of isolated members left out of a vote
	polls, pollBad int
	checked, wrong int
	snaps, snapBad int
	decideMS       []float64
	snapshotOn     bool
	nextSnap       time.Time
	mu             sync.Mutex // guards snapshotOn, nextSnap
}

func newDecideSession(base string, seed int64, log *spanLog) *decideSession {
	s := &decideSession{
		base: base,
		gen:  newBurstGen(seed),
		send: newConn(log),
		poll: newConn(log),
		// One burst per tenant can be in flight in the closed-loop job;
		// the open loop keeps far fewer outstanding.
		queue:       make(chan *burst, decideTenants),
		reportsSent: make([]uint64, decideTenants),
		burstsSent:  make([]uint64, decideTenants),
		lastSeq:     make([]uint64, decideTenants),
		pending:     make([][]*burst, decideTenants),
		isolated:    make([]map[int]bool, decideTenants),
	}
	loadgen(&s.pollWG, s.poller)
	return s
}

// sendBurst posts one burst and hands it to the poller. It reports
// whether the server accepted every report.
func (s *decideSession) sendBurst(b *burst, timed bool) bool {
	b.timed = timed
	b.sentAt = time.Now()
	s.sent++
	status, reply, err := s.send.do(http.MethodPost, fmt.Sprintf("%s/v1/tenants/t%03d/reports", s.base, b.tenant), "serve.ingest_json", jsonBody(b.nodes))
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(reply, &r)
	}
	if err != nil || status != http.StatusOK || r.Accepted != len(b.nodes) {
		s.sendBad++
		return false
	}
	s.reportsSent[b.tenant] += uint64(len(b.nodes))
	s.burstsSent[b.tenant]++
	b.firstPoll = time.Now().Add(decideTout * time.Millisecond)
	b.nextPoll = b.firstPoll
	s.wg.Add(1)
	s.queue <- b
	return true
}

// job sends one burst to every tenant back to back and waits until the
// poller has seen every decision.
func (s *decideSession) job() error {
	for t := 0; t < decideTenants; t++ {
		s.sendBurst(s.gen.next(t), false)
	}
	s.wg.Wait()
	return nil
}

func (s *decideSession) openLoop(d time.Duration) (opsMS, lateMS []float64) {
	interval := decidePeriod / decideTenants
	n := int(d / interval)
	start := time.Now().Add(time.Millisecond)
	s.mu.Lock()
	s.snapshotOn, s.nextSnap = true, start
	s.mu.Unlock()
	var wg sync.WaitGroup
	loadgen(&wg, func() {
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(k) * interval)
			sleepUntil(due)
			lateMS = append(lateMS, ms(time.Since(due)))
			ok := s.sendBurst(s.gen.next(k%decideTenants), true)
			lat := ms(sinceDue(due, time.Now()))
			if !ok {
				lat = math.Inf(1)
			}
			s.ackMS = append(s.ackMS, lat)
		}
	})
	wg.Wait()
	s.wg.Wait()
	s.mu.Lock()
	s.snapshotOn = false
	s.mu.Unlock()
	return s.decideMS, lateMS
}

// burstHeap orders outstanding bursts by their next poll time.
type burstHeap []*burst

func (h burstHeap) Len() int           { return len(h) }
func (h burstHeap) Less(i, j int) bool { return h[i].nextPoll.Before(h[j].nextPoll) }
func (h burstHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *burstHeap) Push(x any)        { *h = append(*h, x.(*burst)) }
func (h *burstHeap) Pop() any {
	old := *h
	b := old[len(old)-1]
	*h = old[:len(old)-1]
	return b
}

// poller follows the decision stream. It blocks on the hand-over queue
// only when nothing is outstanding; otherwise it sleeps until the
// earliest poll is due, then takes in whatever the sender handed over.
func (s *decideSession) poller() {
	var h burstHeap
	queue := s.queue
	take := func(b *burst, ok bool) {
		if !ok {
			queue = nil
			return
		}
		s.pending[b.tenant] = append(s.pending[b.tenant], b)
		heap.Push(&h, b)
	}
	for queue != nil || h.Len() > 0 {
		if h.Len() == 0 {
			b, ok := <-queue
			take(b, ok)
			continue
		}
		sleepUntil(h[0].nextPoll)
	drain:
		for queue != nil {
			select {
			case b, ok := <-queue:
				take(b, ok)
			default:
				break drain
			}
		}
		s.maybeSnapshot()
		b := h[0]
		if time.Now().Before(b.nextPoll) {
			continue
		}
		if !b.resolved {
			s.pollTenant(b.tenant)
		}
		switch {
		case b.resolved:
			heap.Pop(&h)
		case time.Since(b.firstPoll) > decideTimeout:
			s.wrong++
			s.expire(b)
			heap.Pop(&h)
		default:
			b.nextPoll = time.Now().Add(decidePollRetry)
			heap.Fix(&h, 0)
		}
	}
}

// expire gives up on a burst whose decision never showed.
func (s *decideSession) expire(b *burst) {
	p := s.pending[b.tenant]
	if i := slices.Index(p, b); i >= 0 {
		s.pending[b.tenant] = slices.Delete(p, i, i+1)
	}
	b.resolved = true
	if b.timed {
		s.decideMS = append(s.decideMS, math.Inf(1))
	}
	s.wg.Done()
}

// pollTenant reads a tenant's new decisions and matches each to the
// oldest outstanding burst: seqs must run on from the last one seen, and
// the reporters must equal the burst's deduplicated set.
func (s *decideSession) pollTenant(t int) {
	s.polls++
	url := fmt.Sprintf("%s/v1/tenants/t%03d/decisions?since=%d", s.base, t, s.lastSeq[t])
	status, body, err := s.poll.do(http.MethodGet, url, "serve.poll", nil)
	seen := time.Now()
	var reply struct {
		Decisions []struct {
			Seq       uint64 `json:"seq"`
			Reporters []int  `json:"reporters"`
		} `json:"decisions"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &reply)
	}
	if err != nil || status != http.StatusOK {
		s.pollBad++
		return
	}
	for _, d := range reply.Decisions {
		s.checked++
		if d.Seq != s.lastSeq[t]+1 {
			s.wrong++
		}
		s.lastSeq[t] = d.Seq
		if len(s.pending[t]) == 0 {
			s.wrong++ // a decision no burst asked for
			continue
		}
		b := s.pending[t][0]
		s.pending[t] = s.pending[t][1:]
		if !reportersMatch(d.Reporters, b.want, func(n int) bool { return s.isIsolated(t, n) }) {
			s.wrong++
		}
		s.dropped += len(b.want) - len(d.Reporters)
		b.resolved = true
		if b.timed {
			s.decideMS = append(s.decideMS, ms(seen.Sub(b.sentAt)-decideTout*time.Millisecond))
		}
		s.wg.Done()
	}
}

// reportersMatch reports whether a decision's reporters are the burst's
// deduplicated set less members the vote has isolated: the sink stops
// listening to an isolated node, so its reports are dropped at ingest.
// Both slices are sorted.
func reportersMatch(got, want []int, isolated func(int) bool) bool {
	i := 0
	for _, w := range want {
		if i < len(got) && got[i] == w {
			i++
		} else if !isolated(w) {
			return false
		}
	}
	return i == len(got)
}

// isIsolated reports whether a tenant's member is isolated. Isolation is
// permanent, so the tenant's trust table is read again only when a member
// is not yet known to be isolated, which happens once per isolation.
func (s *decideSession) isIsolated(t, node int) bool {
	if s.isolated[t][node] {
		return true
	}
	s.polls++
	status, body, err := s.poll.do(http.MethodGet, fmt.Sprintf("%s/v1/tenants/t%03d/trust", s.base, t), "serve.trust", nil)
	var reply struct {
		Trust []struct {
			Node     int  `json:"node"`
			Isolated bool `json:"isolated"`
		} `json:"trust"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &reply) != nil {
		s.pollBad++
		return false
	}
	s.isolated[t] = map[int]bool{}
	for _, e := range reply.Trust {
		s.isolated[t][e.Node] = e.Isolated
	}
	return s.isolated[t][node]
}

// maybeSnapshot fetches tenant t000's sealed snapshot and restores it
// straight back, every snapshotEvery during the open loop.
func (s *decideSession) maybeSnapshot() {
	s.mu.Lock()
	due := s.snapshotOn && !time.Now().Before(s.nextSnap)
	if due {
		s.nextSnap = s.nextSnap.Add(snapshotEvery)
	}
	s.mu.Unlock()
	if !due {
		return
	}
	url := s.base + "/v1/tenants/t000/snapshot"
	s.snaps++
	status, blob, err := s.poll.do(http.MethodGet, url, "serve.snapshot", nil)
	if err != nil || status != http.StatusOK || len(blob) == 0 {
		s.snapBad++
		return
	}
	blob = append([]byte(nil), blob...)
	s.snaps++
	status, _, err = s.poll.do(http.MethodPut, url, "serve.snapshot", blob)
	if err != nil || status != http.StatusOK {
		s.snapBad++
	}
}

func (s *decideSession) finish(out *outcome) {
	close(s.queue)
	s.pollWG.Wait()
	out.count(s.sent, s.sendBad, "burst posts")
	out.count(s.polls, s.pollBad, "decision polls")
	out.count(s.checked, s.wrong, "decision checks")
	out.count(s.snaps, s.snapBad, "snapshot requests")
	ctl := newConn(nil)
	defer ctl.close()
	counts, err := serverCounts(ctl, s.base)
	out.check(err == nil, "reading server counters: %v", err)
	for t := 0; t < decideTenants && err == nil; t++ {
		got := counts[fmt.Sprintf("t%03d", t)]
		out.check(got.Reports == s.reportsSent[t], "tenant t%03d: server accepted %d reports, generator sent %d", t, got.Reports, s.reportsSent[t])
		out.check(got.Decisions == s.burstsSent[t] && s.lastSeq[t] == s.burstsSent[t],
			"tenant t%03d: %d decisions on the server, %d seen, %d bursts sent", t, got.Decisions, s.lastSeq[t], s.burstsSent[t])
	}
	s.send.close()
	s.poll.close()
}

func (s *decideSession) detail() map[string]any {
	return map[string]any{
		"ack_p50_ms":               quantile(s.ackMS, 0.5),
		"ack_p99_ms":               quantile(s.ackMS, 0.99),
		"decide_samples":           len(s.decideMS),
		"polls":                    s.polls,
		"isolated_reports_dropped": s.dropped,
		"bursts_per_s":             float64(time.Second) / float64(decidePeriod) * decideTenants,
		"tout_ms":                  decideTout,
		"snapshot_requests":        s.snaps,
		"poll_retry_us":            us(decidePollRetry),
	}
}

// replayDecide replays seeded bursts at the live rate straight into
// engine instances on timing clocks, with the pass-through scheme: each
// tenant's decisions are read with DecisionsSince once its window must
// have closed, and tenant 0 is sealed and restored once per period.
func replayDecide(out *outcome, log *spanLog, seed int64) error {
	insts := make([]*engine.Instance, decideTenants)
	for t := range insts {
		clock := newTimingClock(time.Millisecond, log)
		defer clock.Close()
		inst, err := engine.New(engine.Config{
			Scheme:  passThroughScheme,
			Params:  serveParams(),
			Tout:    decideTout,
			Members: memberIDs(decideMembers),
			Clock:   clock,
		})
		if err != nil {
			return err
		}
		defer inst.Close()
		insts[t] = inst
	}
	gen := newBurstGen(seed)
	interval := decidePeriod / decideTenants
	n := int(decideReplay / interval)
	// Read a tenant's decision well after its deadline.
	readAfter := decideTout*time.Millisecond + 5*time.Millisecond
	type read struct {
		at     time.Time
		tenant int
		want   []int
	}
	var reads []read
	var since []float64
	var seal, restore, size []float64
	lastSeq := make([]uint64, decideTenants)
	attempts, bad := 0, 0
	doRead := func(r read) {
		start := time.Now()
		ds := insts[r.tenant].DecisionsSince(lastSeq[r.tenant])
		since = append(since, us(time.Since(start)))
		attempts++
		isolated := func(n int) bool { return slices.Contains(insts[r.tenant].IsolatedNodes(), n) }
		if len(ds) != 1 || ds[0].Seq != lastSeq[r.tenant]+1 || !reportersMatch(ds[0].Reporters, r.want, isolated) {
			bad++
		}
		if len(ds) > 0 {
			lastSeq[r.tenant] = ds[len(ds)-1].Seq
		}
	}
	start := time.Now()
	nextSnap := start
	for k := 0; k < n || len(reads) > 0; {
		due := start.Add(time.Duration(k) * interval)
		switch {
		case len(reads) > 0 && (k >= n || reads[0].at.Before(due)):
			sleepUntil(reads[0].at)
			doRead(reads[0])
			reads = reads[1:]
		case !nextSnap.After(due) && k < n:
			sleepUntil(nextSnap)
			nextSnap = nextSnap.Add(decidePeriod)
			t0 := time.Now()
			blob, err := insts[0].SealedSnapshot()
			t1 := time.Now()
			attempts++
			if err != nil {
				bad++
				continue
			}
			err = insts[0].RestoreSealed(blob)
			seal = append(seal, us(t1.Sub(t0)))
			restore = append(restore, us(time.Since(t1)))
			size = append(size, float64(len(blob)))
			if err != nil {
				bad++
			}
		default:
			sleepUntil(due)
			t := k % decideTenants
			b := gen.next(t)
			res := insts[t].ReportMany(b.nodes)
			attempts++
			if res.Accepted != len(b.nodes) {
				bad++
			}
			reads = append(reads, read{at: time.Now().Add(readAfter), tenant: t, want: b.want})
			k++
		}
	}
	out.count(attempts, bad, "replayed engine operations")
	out.set("engine.since_us", "us", median(since))
	out.set("engine.seal_us", "us", median(seal))
	out.set("engine.restore_us", "us", median(restore))
	out.set("engine.snapshot_bytes", "bytes", median(size))
	out.set("engine.expiry_us", "us", median(log.durations("engine.expiry")))
	late := log.durations("wallclock.late")
	out.set("wallclock.late_p50_us", "us", quantile(late, 0.5))
	out.set("wallclock.late_p99_us", "us", quantile(late, 0.99))
	return nil
}
