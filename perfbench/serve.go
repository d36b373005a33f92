package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"github.com/tibfit/tibfit/internal/serve"
)

// serveServers is how many fresh daemons an untraced serve run starts,
// one after another; set-up is their median and the other metrics pool
// their samples.
const serveServers = 10

// target is one server under measurement: a daemon process (untraced)
// or the serving layer hosted in this process (traced).
type target struct {
	base   string
	cpu    func() (time.Duration, error)
	peakMB func() (float64, error)
	stop   func()
}

func daemonTarget(bin string) (*target, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	return &target{
		base:   d.base,
		cpu:    func() (time.Duration, error) { return processCPU(d.pid()) },
		peakMB: func() (float64, error) { return peakRSSMB(d.pid()) },
		stop:   d.stop,
	}, nil
}

// inProcessTarget hosts serve.Server behind the timing handler on a
// loopback listener. Its goroutines carry the pprof label role=server;
// CPU and peak RSS are this whole process's, load generator included.
func inProcessTarget(log *spanLog) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{})
	hs := &http.Server{Handler: timingHandler{next: srv.Handler(), log: log}}
	served := make(chan struct{})
	pprof.Do(context.Background(), pprof.Labels("role", "server"), func(context.Context) {
		go func() {
			defer close(served)
			_ = hs.Serve(ln)
		}()
	})
	return &target{
		base:   "http://" + ln.Addr().String(),
		cpu:    func() (time.Duration, error) { return selfCPU(), nil },
		peakMB: func() (float64, error) { return peakRSSMB(0) },
		stop: func() {
			_ = hs.Close()
			<-served
			srv.Close()
		},
	}, nil
}

// serveWorkload describes one serve workload's tenants and traffic.
type serveWorkload struct {
	tenants []string
	spec    serve.TenantConfig
	// newSession starts the traffic against one server. log is nil on
	// untraced runs.
	newSession func(base string, log *spanLog) session
	// route is the handler span of the workload's ingest requests.
	route string
	// replay drives the recorded traffic through the engine directly.
	replay func(out *outcome, log *spanLog) error
}

// session is a workload's traffic against one server.
type session interface {
	// job runs one closed-loop repetition of the workload's fixed job.
	job() error
	// openLoop runs the fixed-rate phase for d and returns each
	// operation's latency in ms (+Inf when it failed) and how late each
	// send left against its schedule, in ms.
	openLoop(d time.Duration) (opsMS, lateMS []float64)
	// finish stops the traffic, verifies the server's final state and
	// records every operation and check in out.
	finish(out *outcome)
	// detail returns workload-specific figures for the detail line.
	detail() map[string]any
}

// serveRun is what one pass over one server measured.
type serveRun struct {
	e      *endToEnd
	sent   int       // open-loop requests sent
	lateMS []float64 // how late each left, in ms
	detail map[string]any
}

func tenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
	}
	return names
}

func runServe(o options, out *outcome, w serveWorkload) error {
	runtime.GOMAXPROCS(1)
	out.gomaxprocs["bench"] = 1
	out.gomaxprocs["daemon"] = daemonGOMAXPROCS
	startDaemon := func() (*target, error) { return daemonTarget(o.serveBin) }
	if !o.trace {
		r, err := measureServe(out, w, startDaemon, serveServers, o.seconds, nil)
		if err != nil {
			return err
		}
		out.setEndToEnd(r.e)
		for k, v := range r.detail {
			out.detail[k] = v
		}
		out.detail["loadgen_late_p99_ms"] = quantile(r.lateMS, 0.99)
		return nil
	}

	// Traced run: half the time against a daemon, untraced; half against
	// the serving layer in this process, under the profiler, with both
	// generator and server on this process's two Ps.
	out.zeroPerLayer()
	untraced, err := measureServe(out, w, startDaemon, 1, o.seconds/2, nil)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(2)
	out.gomaxprocs["bench"] = 2
	delete(out.gomaxprocs, "daemon")
	log := newSpanLog()
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	b0, n0 := allocCounters()
	var traced *serveRun
	pprof.Do(context.Background(), pprof.Labels("role", "loadgen"), func(context.Context) {
		traced, err = measureServe(out, w, func() (*target, error) { return inProcessTarget(log) }, 1, o.seconds/2, log)
	})
	b1, n1 := allocCounters()
	samples, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	out.setProfile(samples)
	out.set("heap.alloc_mb", "MB", float64(b1-b0)/(1<<20))
	out.set("heap.objects", "count", float64(n1-n0))
	for _, r := range []string{"serve.ingest_line", "serve.ingest_json", "serve.poll", "serve.snapshot"} {
		out.set(r+"_us", "us", median(log.durations(r)))
	}
	out.set("http.overhead_us", "us", median(log.durations("client."+w.route))-median(log.durations(w.route)))
	out.set("loadgen.late_p99_ms", "ms", quantile(untraced.lateMS, 0.99))
	out.set("loadgen.sent", "count", float64(untraced.sent))
	registerPassThrough()
	if err := w.replay(out, log); err != nil {
		return err
	}
	out.setDecisionStats()
	out.setOverhead(untraced.e, traced.e)
	path, err := log.write(o.out, fmt.Sprintf("%s-%d", o.workload, o.seed))
	if err != nil {
		return err
	}
	out.detail["spans"] = path
	out.detail["spans_dropped"] = log.dropped
	return nil
}

// measureServe measures on `servers` fresh servers in turn, splitting
// the budget between them and pooling their samples, so one server
// instance's luck (placement, heap layout) weighs only 1/servers of the
// result. On each it times set-up from launch until every tenant exists,
// runs closed-loop job repetitions for half its share, then the
// open-loop phase.
func measureServe(out *outcome, w serveWorkload, start func() (*target, error), servers int, budget time.Duration, log *spanLog) (*serveRun, error) {
	r := &serveRun{e: &endToEnd{}}
	var cpu time.Duration
	reps := 0
	var walls []float64 // per-server median job wall time, for the detail line
	share := budget / time.Duration(servers)
	for i := 0; i < servers; i++ {
		begin := time.Now()
		t, err := start()
		if err != nil {
			return nil, err
		}
		c := newConn(nil)
		err = createTenants(c, t.base, w.tenants, w.spec)
		c.close()
		out.check(err == nil, "set-up %d: %v", i, err)
		if err != nil {
			t.stop()
			return nil, err
		}
		r.e.setup = append(r.e.setup, time.Since(begin).Seconds())

		s := w.newSession(t.base, log)
		cpu0, err := t.cpu()
		first := len(r.e.wall)
		deadline := time.Now().Add(share / 2)
		for err == nil && (len(r.e.wall)-first < 3 || time.Now().Before(deadline)) {
			begin := time.Now()
			err = s.job()
			r.e.wall = append(r.e.wall, time.Since(begin).Seconds())
		}
		walls = append(walls, median(r.e.wall[first:]))
		reps += len(r.e.wall) - first
		cpu1, cerr := t.cpu()
		if err == nil {
			err = cerr
		}
		if err == nil {
			cpu += cpu1 - cpu0
			ops, late := s.openLoop(share - share/2)
			r.e.ops = append(r.e.ops, ops...)
			r.lateMS = append(r.lateMS, late...)
			r.sent += len(late)
		}
		s.finish(out)
		r.detail = s.detail()
		var peak float64
		if err == nil {
			peak, err = t.peakMB()
		}
		t.stop()
		if err != nil {
			return nil, err
		}
		r.e.peaks = append(r.e.peaks, peak)
	}
	r.e.cpu = []float64{cpu.Seconds() / float64(reps)}
	r.detail["wall_s_by_server"] = walls
	return r, nil
}

// loadgen runs fn on a new goroutine labelled role=loadgen, so the
// traced run's profile can tell the generator from the server.
func loadgen(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	pprof.Do(context.Background(), pprof.Labels("role", "loadgen"), func(context.Context) {
		go func() {
			defer wg.Done()
			fn()
		}()
	})
}

// sleepUntil sleeps until t (no-op when t has passed). time.Sleep wakes
// on the runtime's network poller, whose timeout is whole milliseconds on
// Linux, so it covers all but the last two milliseconds and nanosleep
// the rest: a sub-millisecond schedule then runs tens of microseconds
// late instead of up to a millisecond, and no goroutine holds the
// generator's one P in a syscall for long.
func sleepUntil(t time.Time) {
	const coarse = 2 * time.Millisecond
	if d := time.Until(t); d > coarse {
		time.Sleep(d - coarse)
	}
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			return
		}
	}
}

// conn is one generator connection and, on traced runs, the span log
// its requests are recorded in as client spans parenting handler spans.
type conn struct {
	c   *http.Client
	log *spanLog
	buf bytes.Buffer
}

// newConn returns a generator connection: a client that keeps exactly
// one connection to the server.
func newConn(log *spanLog) *conn {
	return &conn{
		c: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			Timeout: 10 * time.Second,
		},
		log: log,
	}
}

// do sends one request and reads the whole reply into the conn's buffer.
// span names the client span on traced runs.
func (c *conn) do(method, url, span string, body []byte) (status int, reply []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	var id uint64
	var start time.Time
	if c.log != nil {
		id = c.log.newID()
		req.Header.Set(spanHeader, fmt.Sprint(id))
		start = time.Now()
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.log != nil {
		c.log.add(id, 0, "client."+span, start, time.Since(start))
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// tenantCounts is a tenant's server-side counters from GET /v1/metrics.
type tenantCounts struct {
	Reports   uint64 `json:"reports"`
	Decisions uint64 `json:"decisions"`
}

func serverCounts(c *conn, base string) (map[string]tenantCounts, error) {
	status, body, err := c.do(http.MethodGet, base+"/v1/metrics", "metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	var m struct {
		PerTenant map[string]tenantCounts `json:"per_tenant"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return m.PerTenant, nil
}
