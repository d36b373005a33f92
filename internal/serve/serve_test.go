package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/engine"
	"github.com/tibfit/tibfit/internal/metrics"
)

// testServer mounts a server with a microsecond unit so window expiries
// arrive quickly in real time.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Unit: time.Microsecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func mustCreate(t *testing.T, ts *httptest.Server, name, cfg string) {
	t.Helper()
	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/"+name, []byte(cfg))
	if status != http.StatusCreated {
		t.Fatalf("creating tenant %s: HTTP %d: %s", name, status, body)
	}
}

// waitDecisions polls until the tenant has at least n decisions.
func waitDecisions(t *testing.T, inst *engine.Instance, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for inst.DecisionCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("tenant stuck at %d decisions, want %d", inst.DecisionCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeIngestToDecision(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"scheme":"tibfit","tout":100,"nodes":4}`)

	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports",
		[]byte(`{"nodes":[0,1,2]}`))
	if status != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", status, body)
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != 3 {
		t.Fatalf("ack = %s (err %v), want accepted 3", body, err)
	}

	inst, ok := s.Tenant("alpha")
	if !ok {
		t.Fatal("tenant alpha missing")
	}
	waitDecisions(t, inst, 1)

	status, body = do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/decisions?since=0", nil)
	if status != http.StatusOK {
		t.Fatalf("decisions: HTTP %d: %s", status, body)
	}
	var page struct {
		Decisions []engine.Decision `json:"decisions"`
		Latest    uint64            `json:"latest"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Decisions) != 1 || page.Latest != 1 {
		t.Fatalf("decision page = %s, want one decision, latest 1", body)
	}
	d := page.Decisions[0]
	if !d.Occurred || len(d.Reporters) != 3 || len(d.Silent) != 1 {
		t.Fatalf("decision = %+v, want occurred with 3 reporters, 1 silent", d)
	}
}

func TestServeTrustAndMetrics(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"nodes":3,"tout":50}`)
	do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports", []byte(`{"nodes":[0]}`))
	inst, _ := s.Tenant("alpha")
	waitDecisions(t, inst, 1)

	status, body := do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/trust", nil)
	if status != http.StatusOK {
		t.Fatalf("trust: HTTP %d: %s", status, body)
	}
	var trust struct {
		Scheme string              `json:"scheme"`
		Trust  []engine.TrustEntry `json:"trust"`
	}
	if err := json.Unmarshal(body, &trust); err != nil {
		t.Fatal(err)
	}
	if trust.Scheme != "tibfit" || len(trust.Trust) != 3 {
		t.Fatalf("trust = %s, want tibfit with 3 rows", body)
	}
	// Node 0 reported alone against two silent members: judged wrong,
	// its TI must have decayed below the untouched members'.
	if !(trust.Trust[0].TI < trust.Trust[1].TI) {
		t.Fatalf("trust rows = %+v, want node 0 below node 1", trust.Trust)
	}

	status, body = do(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: HTTP %d: %s", status, body)
	}
	var m struct {
		Tenants    int                      `json:"tenants"`
		IngestNS   metrics.HistogramSummary `json:"ingest_ns"`
		DecisionNS metrics.HistogramSummary `json:"decision_ns"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tenants != 1 || m.IngestNS.Count == 0 || m.DecisionNS.Count == 0 {
		t.Fatalf("metrics = %s, want 1 tenant and populated histograms", body)
	}
}

// TestServeDecisionLag pins what decision_ns measures: the wall time
// from a window's deadline to its decision being published, not the
// window length. A poll after the deadline publishes the decision
// itself, so the lag stays far below the 100 ms window.
func TestServeDecisionLag(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"nodes":3,"tout":100000}`)
	do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports", []byte(`{"nodes":[0]}`))
	inst, _ := s.Tenant("alpha")
	waitDecisions(t, inst, 1)
	_, decide := s.LatencySummaries()
	if decide.Count != 1 || !(decide.Max < 50e6) {
		t.Fatalf("decision_ns = %+v, want one sample of deadline-to-publish lag well under the 100 ms window", decide)
	}
}

// TestServeDropTenantWithPendingBackstop drops a tenant whose window's
// backstop timer is still pending on the server's clock. Once the
// deadline has passed, the timer must find the closed instance and do
// nothing: no decision is published and neither histogram moves. The
// shared clock keeps running: a later tenant's backstop, with no entry
// point called, still publishes its decision.
func TestServeDropTenantWithPendingBackstop(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"nodes":3,"tout":20000}`)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports", []byte(`{"nodes":[0]}`)); status != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", status, body)
	}
	inst, _ := s.Tenant("alpha")
	ingest, decide := s.LatencySummaries()
	if ingest.Count != 1 || decide.Count != 0 {
		t.Fatalf("before the drop: ingest %+v, decide %+v, want one report and no decision", ingest, decide)
	}
	if !s.DropTenant("alpha") {
		t.Fatal("DropTenant(alpha) = false")
	}
	time.Sleep(60 * time.Millisecond) // three times past the 20 ms deadline
	if n := inst.DecisionCount(); n != 0 {
		t.Fatalf("dropped tenant published %d decisions, want 0", n)
	}
	if gotIngest, gotDecide := s.LatencySummaries(); gotIngest != ingest || gotDecide != decide {
		t.Fatalf("histograms moved after the drop: ingest %+v -> %+v, decide %+v -> %+v",
			ingest, gotIngest, decide, gotDecide)
	}

	mustCreate(t, ts, "beta", `{"nodes":3,"tout":1000}`)
	do(t, http.MethodPost, ts.URL+"/v1/tenants/beta/reports", []byte(`{"nodes":[1]}`))
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, decide := s.LatencySummaries(); decide.Count == 1 {
			break
		}
		if time.Now().After(end) {
			t.Fatal("tenant beta's backstop never published its decision")
		}
	}
}

func TestServeSnapshotRoundTrip(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"nodes":4,"tout":50}`)
	do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports", []byte(`{"nodes":[3]}`))
	inst, _ := s.Tenant("alpha")
	waitDecisions(t, inst, 1)
	wantTI := inst.TI(3)

	status, blob := do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/snapshot", nil)
	if status != http.StatusOK || len(blob) == 0 {
		t.Fatalf("snapshot: HTTP %d, %d bytes", status, len(blob))
	}

	// Restore into a brand-new tenant: trust state carries over.
	mustCreate(t, ts, "beta", `{"nodes":4,"tout":50}`)
	status, body := do(t, http.MethodPut, ts.URL+"/v1/tenants/beta/snapshot", blob)
	if status != http.StatusOK {
		t.Fatalf("restore: HTTP %d: %s", status, body)
	}
	restored, _ := s.Tenant("beta")
	//lint:allow floateq restore must reproduce persisted trust exactly
	if got := restored.TI(3); got != wantTI {
		t.Fatalf("restored TI(3) = %v, want %v", got, wantTI)
	}

	// A replayed blob is stale.
	status, body = do(t, http.MethodPut, ts.URL+"/v1/tenants/beta/snapshot", blob)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "already restored") {
		t.Fatalf("replay: HTTP %d: %s, want 400 stale", status, body)
	}

	// A tampered blob fails verification.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0x01
	status, body = do(t, http.MethodPut, ts.URL+"/v1/tenants/alpha/snapshot", bad)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "corrupt") {
		t.Fatalf("tampered: HTTP %d: %s, want 400 corrupt", status, body)
	}
}

func TestServeTenantLifecycleAndErrors(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{}`)

	// Duplicate create is a conflict, not a malformed request.
	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha", []byte(`{}`))
	if status != http.StatusConflict || !strings.Contains(string(body), "already exists") {
		t.Fatalf("duplicate create: HTTP %d: %s, want 409", status, body)
	}
	// Invalid name.
	status, body = do(t, http.MethodPost, ts.URL+"/v1/tenants/Bad!Name", []byte(`{}`))
	if status != http.StatusBadRequest {
		t.Fatalf("invalid name: HTTP %d: %s", status, body)
	}
	// Unknown scheme propagates the registry's message.
	status, body = do(t, http.MethodPost, ts.URL+"/v1/tenants/beta", []byte(`{"scheme":"magic"}`))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "unknown scheme") {
		t.Fatalf("unknown scheme: HTTP %d: %s", status, body)
	}
	// Unknown tenant across endpoints.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/tenants/ghost/reports"},
		{http.MethodGet, "/v1/tenants/ghost/decisions"},
		{http.MethodGet, "/v1/tenants/ghost/trust"},
		{http.MethodGet, "/v1/tenants/ghost/snapshot"},
		{http.MethodDelete, "/v1/tenants/ghost"},
	} {
		status, _ := do(t, probe.method, ts.URL+probe.path, []byte(`{"nodes":[1]}`))
		if status != http.StatusNotFound {
			t.Fatalf("%s %s: HTTP %d, want 404", probe.method, probe.path, status)
		}
	}
	// Bad ingest bodies.
	status, _ = do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports", []byte(`{"nodes":[]}`))
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: HTTP %d, want 400", status)
	}
	status, body = do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports", []byte(`{"nodes":[999]}`))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "unknown node") {
		t.Fatalf("unknown node: HTTP %d: %s", status, body)
	}
	// List, then drop, then 404.
	status, body = do(t, http.MethodGet, ts.URL+"/v1/tenants", nil)
	if status != http.StatusOK || !strings.Contains(string(body), `"alpha"`) {
		t.Fatalf("list: HTTP %d: %s", status, body)
	}
	status, _ = do(t, http.MethodDelete, ts.URL+"/v1/tenants/alpha", nil)
	if status != http.StatusOK {
		t.Fatalf("drop: HTTP %d", status)
	}
	status, _ = do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports", []byte(`{"nodes":[1]}`))
	if status != http.StatusNotFound {
		t.Fatalf("dropped tenant still serves: HTTP %d", status)
	}
}

// TestServeRejectsOversizedNodes pins the population bound: a tiny
// create request naming more nodes than a body-sized members list could
// carry is a 400, answered before any member slice is allocated.
func TestServeRejectsOversizedNodes(t *testing.T) {
	_, ts := testServer(t)
	cfg := fmt.Sprintf(`{"nodes":%d}`, maxBodyBytes/2+1)
	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/huge", []byte(cfg))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds") {
		t.Fatalf("oversized nodes: HTTP %d: %s, want 400", status, body)
	}
}

// TestServeRejectsOversizedTout pins the window bound: a T_out past
// maxTout is a 400 naming the limit, and a T_out at it is accepted.
func TestServeRejectsOversizedTout(t *testing.T) {
	_, ts := testServer(t)
	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/slow", []byte(`{"tout":1000000001}`))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the limit of 1e+09") {
		t.Fatalf("oversized tout: HTTP %d: %s, want 400 naming the limit", status, body)
	}
	mustCreate(t, ts, "slow", `{"tout":1000000000}`)
}

// TestServeTenantCap pins the tenant bound: with maxTenants tenants held,
// one more create is a 429 naming the limit, and dropping a tenant makes
// room again.
func TestServeTenantCap(t *testing.T) {
	s, ts := testServer(t)
	for i := 0; i < maxTenants; i++ {
		if err := s.CreateTenant(fmt.Sprintf("t%d", i), TenantConfig{Nodes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/extra", []byte(`{"nodes":1}`))
	if status != http.StatusTooManyRequests || !strings.Contains(string(body), fmt.Sprintf("the limit is %d", maxTenants)) {
		t.Fatalf("tenant past the cap: HTTP %d: %s, want 429 naming the limit", status, body)
	}
	if !s.DropTenant("t0") {
		t.Fatal("t0 missing")
	}
	mustCreate(t, ts, "extra", `{"nodes":1}`)
}

// TestServeRejectsOversizedBodies pins the body bound on every endpoint
// that reads one: a body past maxBodyBytes is a 413 naming the limit,
// and nothing of it lands. The line batch is 174,772 lines of "99999\n"
// (1,048,632 bytes), so the 1 MiB cut falls mid-line: read as a shorter
// batch, its last partial line would be a report from node 9999.
func TestServeRejectsOversizedBodies(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"tout":1000,"nodes":100000}`)
	lines := bytes.Repeat([]byte("99999\n"), 174_772)
	nodes := append([]byte(`{"nodes":[`), bytes.Repeat([]byte("99999,"), 174_762)...)
	nodes = append(nodes, "99999]}"...)
	members := append([]byte(`{"members":[`), bytes.Repeat([]byte("99999,"), 174_762)...)
	members = append(members, "99999]}"...)
	for _, tc := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/tenants/alpha/reports/batch", lines},
		{http.MethodPost, "/v1/tenants/alpha/reports", nodes},
		{http.MethodPost, "/v1/tenants/beta", members},
		{http.MethodPut, "/v1/tenants/alpha/snapshot", lines},
	} {
		if len(tc.body) <= maxBodyBytes {
			t.Fatalf("%s %s: test body is %d bytes, not past the limit", tc.method, tc.path, len(tc.body))
		}
		status, body := do(t, tc.method, ts.URL+tc.path, tc.body)
		if status != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), strconv.Itoa(maxBodyBytes)) {
			t.Errorf("%s %s: HTTP %d: %s, want 413 naming the %d-byte limit", tc.method, tc.path, status, body, maxBodyBytes)
		}
	}
	s.mu.RLock()
	alpha, beta := s.tenants["alpha"], s.tenants["beta"]
	s.mu.RUnlock()
	if n := alpha.inst.ReportCount(); n != 0 {
		t.Errorf("oversized batches landed %d reports, want none", n)
	}
	if beta != nil {
		t.Error("an oversized tenant config created the tenant")
	}
}

// TestServeShardsIsOneLocation pins the shards wire field: a tenant is
// one event location, so {"shards":1} and {} create a tenant and any
// other count is a 400 that names the field.
func TestServeShardsIsOneLocation(t *testing.T) {
	_, ts := testServer(t)
	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/four", []byte(`{"shards":4}`))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "shards") ||
		!strings.Contains(string(body), "one event location") {
		t.Fatalf(`{"shards":4}: HTTP %d: %s, want 400 naming shards`, status, body)
	}
	mustCreate(t, ts, "one", `{"shards":1}`)
	mustCreate(t, ts, "plain", `{}`)
}

// TestServeDecisionsLatestNeverPastLastSeq pins the resume point of an
// empty decision page: a poller that asks beyond the last decision is
// told the tenant's real last seq, not its own since echoed back.
func TestServeDecisionsLatestNeverPastLastSeq(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{}`)
	status, body := do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/decisions?since=99", nil)
	if status != http.StatusOK {
		t.Fatalf("decisions: HTTP %d: %s", status, body)
	}
	var page struct {
		Decisions []engine.Decision `json:"decisions"`
		Latest    *uint64           `json:"latest"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Decisions) != 0 || page.Latest == nil || *page.Latest != 0 {
		t.Fatalf("?since=99 on a fresh tenant = %s, want no decisions and latest 0", body)
	}
}

func TestServeHealthz(t *testing.T) {
	_, ts := testServer(t)
	status, body := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: HTTP %d: %s", status, body)
	}
}

// TestServeManyTenantsConcurrently hammers four tenants from parallel
// writers — the smoke-test shape, shrunk for the unit suite — and
// checks the per-report accounting stays exact.
func TestServeManyTenantsConcurrently(t *testing.T) {
	s, ts := testServer(t)
	const tenants, batches, perBatch = 4, 25, 8
	for i := 0; i < tenants; i++ {
		mustCreate(t, ts, fmt.Sprintf("t-%d", i), `{"nodes":16,"tout":200}`)
	}
	errc := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t-%d", i)
		go func() {
			for b := 0; b < batches; b++ {
				status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/"+name+"/reports",
					[]byte(`{"nodes":[0,1,2,3,4,5,6,7]}`))
				if status != http.StatusOK {
					errc <- fmt.Errorf("%s batch %d: HTTP %d: %s", name, b, status, body)
					return
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < tenants; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tenants; i++ {
		inst, _ := s.Tenant(fmt.Sprintf("t-%d", i))
		if got := inst.ReportCount(); got != batches*perBatch {
			t.Fatalf("tenant %d accepted %d reports, want %d", i, got, batches*perBatch)
		}
	}
}
