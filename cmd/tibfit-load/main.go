// Command tibfit-load is the seeded load generator for tibfit-serve: it
// creates tenants, streams report batches from concurrent closed-loop
// workers drawing on deterministic rngs, reports the sustained
// reports/sec figure for the send phase, waits for the decision windows
// to drain, optionally round-trips every tenant's sealed snapshot, and
// writes the latency-histogram artifact the CI smoke job uploads.
//
// Usage:
//
//	tibfit-load [-addr http://127.0.0.1:8080] [-tenants 4] [-tenant load]
//	            [-scheme tibfit] [-reports 10000] [-nodes 32] [-batch 64]
//	            [-workers 1] [-wire json|batch]
//	            [-tout 5] [-seed 7] [-out latency.json]
//	            [-min-decisions 1] [-snapshot-roundtrip]
//
// The report stream is a pure function of -seed and -workers: worker w
// seeds its own rng from them, walks the tenants round-robin from
// offset w, and draws reporting nodes Bernoulli(0.6) from the member
// set, so two runs against fresh servers ingest identical streams.
// -wire picks the ingest encoding: "json" posts the classic JSON body
// to /reports; "batch" posts the line format to /reports/batch, the
// zero-alloc hot path.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/tibfit/tibfit/internal/cli"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tibfit-load:", err)
		os.Exit(1)
	}
}

// reportProb is the per-node probability of joining a batch — high
// enough that most batches open a window with a solid reporter side.
const reportProb = 0.6

// Wire formats for -wire.
const (
	wireJSON  = "json"
	wireBatch = "batch"
)

// workerSeedStride separates per-worker rng streams: a large prime, so
// seeds never collide however many workers run.
const workerSeedStride = 1000003

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("tibfit-load", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "tibfit-serve base URL")
		tenants   = fs.Int("tenants", 4, "tenants to create and spread load across")
		tenant    = fs.String("tenant", "load", "tenant name prefix (tenants are <prefix>-0..n-1)")
		reports   = fs.Int("reports", 10000, "total reports to send across all tenants")
		nodes     = fs.Int("nodes", 32, "members per tenant")
		batch     = fs.Int("batch", 64, "max reports per ingest request")
		workers   = fs.Int("workers", 1, "concurrent closed-loop send workers")
		wire      = fs.String("wire", wireJSON, `ingest wire format: "json" or "batch" (line-format hot path)`)
		tout      = fs.Float64("tout", 5, "tenant T_out in the server's virtual units")
		seed      = fs.Int64("seed", 7, "random seed for the report stream")
		outPath   = fs.String("out", "", "write the latency-histogram JSON artifact here")
		minDec    = fs.Int("min-decisions", 1, "fail unless at least this many decisions were made")
		roundtrip = fs.Bool("snapshot-roundtrip", false, "snapshot and restore every tenant after the run")
		timeout   = fs.Duration("timeout", 60*time.Second, "overall drain deadline after the last report")
	)
	var sf cli.SchemeFlags
	sf.Register(fs, "tibfit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := sf.Resolve()
	if err != nil {
		return err
	}
	base, err := url.Parse(*addr)
	if err != nil || base.Scheme == "" || base.Host == "" {
		return fmt.Errorf("invalid -addr %q: need an absolute URL like http://127.0.0.1:8080", *addr)
	}
	if err := cli.ValidateTenant(*tenant); err != nil {
		return err
	}
	if *tenants <= 0 {
		return fmt.Errorf("-tenants must be positive, got %d", *tenants)
	}
	if *reports <= 0 {
		return fmt.Errorf("-reports must be positive, got %d", *reports)
	}
	if *nodes <= 0 || *batch <= 0 {
		return fmt.Errorf("-nodes and -batch must be positive, got %d and %d", *nodes, *batch)
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}
	if *wire != wireJSON && *wire != wireBatch {
		return fmt.Errorf("-wire must be %q or %q, got %q", wireJSON, wireBatch, *wire)
	}

	// One shared client: each worker holds one connection open in its
	// closed loop, so the idle pool must cover the whole fleet.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *workers + 4,
			MaxIdleConnsPerHost: *workers + 4,
		},
	}
	names := make([]string, *tenants)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%d", *tenant, i)
	}
	for _, name := range names {
		cfg := map[string]any{"scheme": scheme, "tout": *tout, "nodes": *nodes}
		if sf.Lambda > 0 {
			cfg["lambda"] = sf.Lambda
		}
		if sf.FaultRate > 0 {
			cfg["fault_rate"] = sf.FaultRate
		}
		if err := postJSON(client, base, "/v1/tenants/"+name, cfg, nil); err != nil {
			return fmt.Errorf("creating tenant %s: %v", name, err)
		}
	}

	// Stream the seeded batches from the worker fleet: the report budget
	// splits across workers (early workers absorb the remainder), each
	// worker runs its own closed loop — build a batch, post, wait for
	// the ack, repeat — with its own rng stream and latency histogram.
	// Request latency is measured client-side per ingest call; the
	// server keeps its own per-report view.
	results := make([]workerResult, *workers)
	sendBegin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		budget := *reports / *workers
		if w < *reports%*workers {
			budget++
		}
		wg.Add(1)
		go func(w, budget int) {
			defer wg.Done()
			results[w] = sendWorker(client, base, names, workerConfig{
				budget: budget,
				nodes:  *nodes,
				batch:  *batch,
				wire:   *wire,
				seed:   *seed + workerSeedStride*int64(w),
				offset: w % len(names),
			})
		}(w, budget)
	}
	wg.Wait()
	wall := time.Since(sendBegin)

	var reqHist metrics.Histogram
	sent, accepted := 0, 0
	for w := range results {
		if results[w].err != nil {
			return fmt.Errorf("worker %d: %v", w, results[w].err)
		}
		sent += results[w].sent
		accepted += results[w].accepted
		reqHist.Merge(&results[w].hist)
	}
	reportsPerSec := float64(sent) / wall.Seconds()

	// Drain: poll until every tenant's open window has expired and the
	// decision count stops moving.
	deadline := time.Now().Add(*timeout)
	var stats metricsReply
	lastDecisions, stable := uint64(0), 0
	for {
		if err := getJSON(client, base, "/v1/metrics", &stats); err != nil {
			return fmt.Errorf("polling metrics: %v", err)
		}
		total := uint64(0)
		for _, t := range stats.PerTenant {
			total += t.Decisions
		}
		if total == lastDecisions && total > 0 {
			stable++
		} else {
			stable = 0
		}
		lastDecisions = total
		if stable >= 2 {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		pause := 2 * time.Duration(float64(*tout)*float64(stats.UnitNS))
		if pause < 10*time.Millisecond {
			pause = 10 * time.Millisecond
		}
		if left := time.Until(deadline); pause > left {
			pause = left // a long T_out must not sleep past -timeout
		}
		time.Sleep(pause)
	}

	if *roundtrip {
		for _, name := range names {
			if err := snapshotRoundtrip(client, base, name); err != nil {
				return fmt.Errorf("snapshot roundtrip for %s: %v", name, err)
			}
		}
		fmt.Fprintf(out, "tibfit-load: snapshot roundtrip ok for %d tenants\n", len(names))
	}

	summary := reqHist.Summary()
	fmt.Fprintf(out, "tibfit-load: sent=%d accepted=%d decisions=%d tenants=%d\n",
		sent, accepted, lastDecisions, len(names))
	fmt.Fprintf(out, "tibfit-load: sustained %.0f reports/sec (%d reports in %.3fs, %d workers, wire=%s)\n",
		reportsPerSec, sent, wall.Seconds(), *workers, *wire)
	fmt.Fprintf(out, "tibfit-load: request latency p50=%s p99=%s mean=%s\n",
		time.Duration(summary.P50), time.Duration(summary.P99), time.Duration(summary.Mean))
	fmt.Fprintf(out, "tibfit-load: server ingest p50=%s p99=%s decision lag p50=%s p99=%s\n",
		time.Duration(stats.IngestNS.P50), time.Duration(stats.IngestNS.P99),
		time.Duration(stats.DecisionNS.P50), time.Duration(stats.DecisionNS.P99))

	if *outPath != "" {
		artifact := map[string]any{
			"schema":          "tibfit-load/v2",
			"sent":            sent,
			"accepted":        accepted,
			"decisions":       lastDecisions,
			"tenants":         len(names),
			"workers":         *workers,
			"wire":            *wire,
			"wall_seconds":    wall.Seconds(),
			"reports_per_sec": reportsPerSec,
			"request_ns":      summary,
			"ingest_ns":       stats.IngestNS,
			"decision_ns":     stats.DecisionNS,
		}
		buf, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding -out artifact: %v", err)
		}
		if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing -out: %v", err)
		}
	}
	if lastDecisions < uint64(*minDec) {
		return fmt.Errorf("made %d decisions, want at least %d", lastDecisions, *minDec)
	}
	return nil
}

// workerConfig parameterizes one closed-loop send worker.
type workerConfig struct {
	budget int    // reports this worker owns
	nodes  int    // members per tenant
	batch  int    // max reports per ingest request
	wire   string // wireJSON or wireBatch
	seed   int64  // this worker's private rng seed
	offset int    // first tenant in this worker's round-robin walk
}

// workerResult is one worker's tally: what it sent, what the server
// accepted, its private latency histogram, and the first error that
// stopped it (nil on a clean run).
type workerResult struct {
	sent     int
	accepted int
	hist     metrics.Histogram
	err      error
}

// sendWorker runs one closed loop to completion: draw a Bernoulli batch
// from the worker's own rng, post it on the configured wire, record the
// request latency, and repeat until the budget is spent. Tenants are
// walked round-robin from the worker's offset so the fleet spreads load
// without coordination.
func sendWorker(client *http.Client, base *url.URL, names []string, cfg workerConfig) workerResult {
	var res workerResult
	src := rng.New(cfg.seed)
	scratch := make([]int, 0, cfg.nodes)
	var lineBuf []byte
	for ti := cfg.offset; res.sent < cfg.budget; ti = (ti + 1) % len(names) {
		nodesIn := scratch[:0]
		for id := 0; id < cfg.nodes && res.sent+len(nodesIn) < cfg.budget && len(nodesIn) < cfg.batch; id++ {
			if src.Bernoulli(reportProb) {
				nodesIn = append(nodesIn, id)
			}
		}
		if len(nodesIn) == 0 {
			nodesIn = append(nodesIn, src.Intn(cfg.nodes))
		}
		var ack struct {
			Accepted int `json:"accepted"`
		}
		var err error
		begin := time.Now()
		if cfg.wire == wireBatch {
			lineBuf = appendLines(lineBuf[:0], nodesIn)
			err = postBytes(client, base, "/v1/tenants/"+names[ti]+"/reports/batch", lineBuf, &ack)
		} else {
			err = postJSON(client, base, "/v1/tenants/"+names[ti]+"/reports",
				map[string]any{"nodes": nodesIn}, &ack)
		}
		res.hist.Record(float64(time.Since(begin)))
		if err != nil {
			res.err = fmt.Errorf("sending batch to %s: %v", names[ti], err)
			return res
		}
		res.sent += len(nodesIn)
		res.accepted += ack.Accepted
	}
	return res
}

// appendLines renders nodes in the line wire format — one decimal node
// ID per LF-terminated line — into dst, reusing its capacity.
func appendLines(dst []byte, nodes []int) []byte {
	for _, id := range nodes {
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, '\n')
	}
	return dst
}

// metricsReply mirrors the server's GET /v1/metrics body (the fields the
// load generator reads).
type metricsReply struct {
	UnitNS     int64                    `json:"unit_ns"`
	IngestNS   metrics.HistogramSummary `json:"ingest_ns"`
	DecisionNS metrics.HistogramSummary `json:"decision_ns"`
	PerTenant  map[string]tenantStats   `json:"per_tenant"`
}

type tenantStats struct {
	Reports   uint64 `json:"reports"`
	Decisions uint64 `json:"decisions"`
}

// snapshotRoundtrip fetches a tenant's sealed snapshot and immediately
// restores it, verifying the serve path end to end: seal, checksum
// verification, version monotonicity.
func snapshotRoundtrip(client *http.Client, base *url.URL, name string) error {
	resp, err := client.Get(base.JoinPath("/v1/tenants/" + name + "/snapshot").String())
	if err != nil {
		return err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	if len(blob) == 0 {
		return fmt.Errorf("snapshot: empty blob")
	}
	req, err := http.NewRequest(http.MethodPut,
		base.JoinPath("/v1/tenants/"+name+"/snapshot").String(), bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("restore: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// postJSON posts v to path and decodes the response into reply (when
// non-nil), treating any non-2xx status as an error carrying the body.
func postJSON(client *http.Client, base *url.URL, path string, v any, reply any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := client.Post(base.JoinPath(path).String(), "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if reply != nil {
		return json.Unmarshal(body, reply)
	}
	return nil
}

// postBytes posts a raw line-format body to path and decodes the JSON
// ack into reply, treating any non-2xx status as an error carrying the
// body.
func postBytes(client *http.Client, base *url.URL, path string, payload []byte, reply any) error {
	resp, err := client.Post(base.JoinPath(path).String(), "text/plain", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if reply != nil {
		return json.Unmarshal(body, reply)
	}
	return nil
}

// getJSON fetches path and decodes the JSON response.
func getJSON(client *http.Client, base *url.URL, path string, reply any) error {
	resp, err := client.Get(base.JoinPath(path).String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, reply)
}
