// Package serve is the HTTP layer of the online decision engine: JSON
// report ingest, a pollable decision stream, live trust tables, and
// sealed snapshot/restore, multiplexed over named tenants that each own
// one engine.Instance (and therefore one trust namespace and one window
// pipeline), all on the server's one wall clock.
//
// The package is an http.Handler, not a binary: cmd/tibfit-serve mounts
// it behind a listener and flags, the package benchmarks drive the
// handler directly, and the smoke test in CI exercises the same handler
// the daemon ships. See docs/SERVING.md for the endpoint reference and
// latency methodology.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/tibfit/tibfit/internal/cli"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/engine"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/sim"
)

// maxBodyBytes bounds request bodies: a 1 MiB report batch is ~100k
// node IDs, far past any sane batch, and snapshots grow linearly in
// members.
const maxBodyBytes = 1 << 20

// maxNodes bounds a tenant config's generated population to the most
// members an explicit members list can carry in one maxBodyBytes body
// (at least a digit and a comma each), so a small request cannot make
// the daemon allocate more than a large one can.
const maxNodes = maxBodyBytes / 2

// maxTenants bounds how many tenants one server holds, so a loop of small
// create requests cannot grow the daemon without limit. It sits 16× above
// the busiest configured load, serve-decide's 256 tenants.
const maxTenants = 4096

// maxTout bounds a tenant's T_out in virtual units (11.6 days at the
// default millisecond unit), so no window is held open for longer than a
// daemon plausibly runs. It sits 100× above the longest configured
// window, serve-ingest's 10⁷ units.
const maxTout = 1e9

// maxDecisionPage caps one decision poll: a poll renders at most this
// many decisions, however far behind it starts, so a full 4096-entry
// ring is read in pages rather than one multi-hundred-KB reply.
const maxDecisionPage = 512

// DefaultUnit is the wall duration of one virtual time unit when the
// server config leaves it zero: a millisecond, so tenant T_out values
// read as milliseconds.
const DefaultUnit = time.Millisecond

// ErrTenantExists is reported (wrapped) by CreateTenant when the tenant
// name is already taken; the HTTP layer maps it to 409 Conflict.
var ErrTenantExists = errors.New("tenant already exists")

// ErrTooManyTenants is reported (wrapped) by CreateTenant when the server
// already holds maxTenants tenants; the HTTP layer maps it to 429 Too Many
// Requests. Dropping a tenant makes room again.
var ErrTooManyTenants = errors.New("too many tenants")

// Config configures a Server.
type Config struct {
	// Unit is the wall duration of one virtual time unit on the server's
	// clock; tenant Tout values are in these units. Zero means
	// DefaultUnit (one millisecond).
	Unit time.Duration
}

// TenantConfig is the JSON body of tenant creation. Zero-valued fields
// take the documented defaults, so `{}` is a valid body.
type TenantConfig struct {
	// Scheme is a decision-registry name or alias (default "tibfit").
	Scheme string `json:"scheme,omitempty"`
	// Tout is the aggregation window length in the server's virtual
	// units (default 100, i.e. 100 ms at the default unit; at most
	// maxTout).
	Tout float64 `json:"tout,omitempty"`
	// Members is the explicit node population. When empty, Nodes
	// generates members 0..Nodes-1 (default 16, at most maxNodes).
	Members []int `json:"members,omitempty"`
	Nodes   int   `json:"nodes,omitempty"`
	// Shards must be 0 or 1: a tenant is one event location, with one
	// window over all its members. The field stays on the wire so that
	// clients sending "shards": 1 keep working.
	Shards int `json:"shards,omitempty"`
	// Lambda, FaultRate, and RemovalThreshold override the §3 trust
	// parameters (defaults 0.25, 0.1, 0.3 — the Table-2-like values the
	// batch experiments use).
	Lambda           float64 `json:"lambda,omitempty"`
	FaultRate        float64 `json:"fault_rate,omitempty"`
	RemovalThreshold float64 `json:"removal_threshold,omitempty"`
}

// withDefaults resolves zero fields to their documented defaults.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.Scheme == "" {
		c.Scheme = decision.SchemeTIBFIT
	}
	if c.Tout <= 0 {
		c.Tout = 100
	}
	if len(c.Members) == 0 {
		if c.Nodes <= 0 {
			c.Nodes = 16
		}
		c.Members = make([]int, c.Nodes)
		for i := range c.Members {
			c.Members[i] = i
		}
	}
	//lint:allow floateq zero is the literal "unset" sentinel, never a computed value
	if c.Lambda == 0 {
		c.Lambda = 0.25
	}
	//lint:allow floateq zero is the literal "unset" sentinel, never a computed value
	if c.FaultRate == 0 {
		c.FaultRate = 0.1
	}
	//lint:allow floateq zero is the literal "unset" sentinel, never a computed value
	if c.RemovalThreshold == 0 {
		c.RemovalThreshold = 0.3
	}
	return c
}

// tenant couples one instance with its creation config.
type tenant struct {
	name   string
	cfg    TenantConfig
	inst   *engine.Instance
	serial uint64 // creation order, for stable listings
}

// Server is the multi-tenant HTTP front end. Every tenant runs on the
// server's one wall clock, so all decisions share one virtual time axis
// counted from server start. All methods and the handler are safe for
// concurrent use.
type Server struct {
	unit  time.Duration
	clock *engine.WallClock

	mu      sync.RWMutex
	tenants map[string]*tenant
	serial  uint64

	histMu sync.Mutex
	ingest metrics.Histogram // wall ns per accepted report, measured per batch
	decide metrics.Histogram // decision lag: wall ns from window deadline to publish
}

// NewServer returns an empty server (no tenants).
func NewServer(cfg Config) *Server {
	unit := cfg.Unit
	if unit <= 0 {
		unit = DefaultUnit
	}
	return &Server{
		unit:    unit,
		clock:   engine.NewWallClock(unit),
		tenants: make(map[string]*tenant),
	}
}

// Unit returns the wall duration of one virtual time unit.
func (s *Server) Unit() time.Duration { return s.unit }

// CreateTenant builds a tenant's engine instance on the server's clock.
// It fails if the name is invalid, Nodes exceeds maxNodes, Tout exceeds
// maxTout, Shards is neither 0 nor 1, the tenant already exists, the
// server already holds maxTenants tenants, or the config is rejected by
// the engine (unknown scheme, bad parameters).
func (s *Server) CreateTenant(name string, cfg TenantConfig) error {
	if err := cli.ValidateTenant(name); err != nil {
		return err
	}
	if cfg.Nodes > maxNodes {
		return fmt.Errorf("serve: tenant %q: nodes %d exceeds the limit of %d", name, cfg.Nodes, maxNodes)
	}
	if cfg.Tout > maxTout {
		return fmt.Errorf("serve: tenant %q: tout %g exceeds the limit of %g", name, cfg.Tout, float64(maxTout))
	}
	if cfg.Shards != 0 && cfg.Shards != 1 {
		return fmt.Errorf("serve: tenant %q: shards %d: a tenant is one event location, so shards must be 0 or 1", name, cfg.Shards)
	}
	cfg = cfg.withDefaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("serve: tenant %q: %w", name, ErrTenantExists)
	}
	if len(s.tenants) >= maxTenants {
		return fmt.Errorf("serve: tenant %q: %w: the limit is %d", name, ErrTooManyTenants, maxTenants)
	}
	unitNS := float64(s.unit)
	inst, err := engine.New(engine.Config{
		Scheme: cfg.Scheme,
		Params: decision.Params{Trust: core.Params{
			Lambda:           cfg.Lambda,
			FaultRate:        cfg.FaultRate,
			RemovalThreshold: cfg.RemovalThreshold,
		}},
		Tout:    sim.Duration(cfg.Tout),
		Members: cfg.Members,
		Clock:   s.clock,
		OnDecision: func(d engine.Decision) {
			lag := (float64(s.clock.Now()) - d.Decided) * unitNS
			s.histMu.Lock()
			s.decide.Record(lag)
			s.histMu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	s.serial++
	s.tenants[name] = &tenant{name: name, cfg: cfg, inst: inst, serial: s.serial}
	return nil
}

// DropTenant closes and removes a tenant; its pending backstop timer
// then finds nothing to close. It reports whether the tenant existed.
func (s *Server) DropTenant(name string) bool {
	s.mu.Lock()
	t, ok := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if ok {
		t.inst.Close()
	}
	return ok
}

// Tenant returns a tenant's engine instance, for in-process callers
// (the bench harness drives instances directly between HTTP runs).
func (s *Server) Tenant(name string) (*engine.Instance, bool) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return t.inst, true
}

// Close shuts every tenant down. The server and its clock stay usable
// (tenants can be re-created); the daemon calls it once on the way out.
func (s *Server) Close() {
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.tenants = make(map[string]*tenant)
	s.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].serial < tenants[j].serial })
	for _, t := range tenants {
		t.inst.Close()
	}
}

// LatencySummaries snapshots the ingest histogram and the decision-lag
// histogram (wall ns from each window's deadline to its decision being
// published).
func (s *Server) LatencySummaries() (ingest, decide metrics.HistogramSummary) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return s.ingest.Summary(), s.decide.Summary()
}

// Handler returns the HTTP API. Mount it at the server root.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("POST /v1/tenants/{tenant}", s.handleCreateTenant)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDropTenant)
	mux.HandleFunc("POST /v1/tenants/{tenant}/reports", s.handleReports)
	mux.HandleFunc("POST /v1/tenants/{tenant}/reports/batch", s.handleReportsBatch)
	mux.HandleFunc("GET /v1/tenants/{tenant}/decisions", s.handleDecisions)
	mux.HandleFunc("GET /v1/tenants/{tenant}/trust", s.handleTrust)
	mux.HandleFunc("GET /v1/tenants/{tenant}/snapshot", s.handleSnapshot)
	mux.HandleFunc("PUT /v1/tenants/{tenant}/snapshot", s.handleRestore)
	return mux
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	//lint:allow hotalloc error path: runs at most once per rejected request, never per report
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// limitBody caps a request body at maxBodyBytes. A read past the cap
// fails with *http.MaxBytesError rather than ending the body early, so a
// cut-off batch is never parsed as a shorter one; writeBodyError answers
// that error with 413.
func limitBody(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, maxBodyBytes)
}

// writeBodyError answers a body that could not be read or decoded: 413
// naming the limit when the body was over it, 400 otherwise.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		//lint:allow hotalloc error path: runs at most once per rejected request, never per report
		writeError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds the %d-byte limit", what, tooBig.Limit)
		return
	}
	//lint:allow hotalloc error path: runs at most once per rejected request, never per report
	writeError(w, http.StatusBadRequest, "%s: %v", what, err)
}

// lookup resolves the {tenant} path value, writing a 404 on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	name := r.PathValue("tenant")
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		//lint:allow hotalloc 404 path: one response per missing tenant, never per report
		writeError(w, http.StatusNotFound, "unknown tenant %q", name)
		return nil, false
	}
	return t, true
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metricsReply is the GET /v1/metrics body.
type metricsReply struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	UnitNS        int64                     `json:"unit_ns"`
	Tenants       int                       `json:"tenants"`
	IngestNS      metrics.HistogramSummary  `json:"ingest_ns"`
	DecisionNS    metrics.HistogramSummary  `json:"decision_ns"`
	PerTenant     map[string]tenantStatView `json:"per_tenant"`
}

// tenantStatView is the per-tenant block of listings and metrics.
type tenantStatView struct {
	Scheme    string  `json:"scheme"`
	Tout      float64 `json:"tout"`
	Members   int     `json:"members"`
	Reports   uint64  `json:"reports"`
	Decisions uint64  `json:"decisions"`
	Isolated  int     `json:"isolated"`
}

func (s *Server) tenantView(t *tenant) tenantStatView {
	return tenantStatView{
		Scheme:    t.inst.SchemeName(),
		Tout:      t.cfg.Tout,
		Members:   len(t.inst.Members()),
		Reports:   t.inst.ReportCount(),
		Decisions: t.inst.DecisionCount(),
		Isolated:  len(t.inst.IsolatedNodes()),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	ingest, decide := s.LatencySummaries()
	s.mu.RLock()
	per := make(map[string]tenantStatView, len(s.tenants))
	for name, t := range s.tenants {
		per[name] = s.tenantView(t)
	}
	n := len(s.tenants)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, metricsReply{
		UptimeSeconds: float64(s.clock.Now()) * s.unit.Seconds(),
		UnitNS:        int64(s.unit),
		Tenants:       n,
		IngestNS:      ingest,
		DecisionNS:    decide,
		PerTenant:     per,
	})
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].serial < list[j].serial })
	type row struct {
		Name string `json:"name"`
		tenantStatView
	}
	rows := make([]row, len(list))
	for i, t := range list {
		rows[i] = row{Name: t.name, tenantStatView: s.tenantView(t)}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": rows})
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	var cfg TenantConfig
	if err := json.NewDecoder(limitBody(w, r)).Decode(&cfg); err != nil && err != io.EOF {
		writeBodyError(w, "decoding tenant config", err)
		return
	}
	if err := s.CreateTenant(name, cfg); err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrTenantExists):
			status = http.StatusConflict
		case errors.Is(err, ErrTooManyTenants):
			status = http.StatusTooManyRequests
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"tenant": name})
}

func (s *Server) handleDropTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !s.DropTenant(name) {
		writeError(w, http.StatusNotFound, "unknown tenant %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"tenant": name})
}

// reportRequest is the ingest body: the reporting node IDs, in arrival
// order. One entry per report; a node reporting the same window twice
// is deduplicated by the aggregator, exactly as in the batch sim.
type reportRequest struct {
	Nodes []int `json:"nodes"`
}

// reportReply acknowledges an ingest batch. A batch with bad rows is a
// partial accept: Rejected counts the skipped reports, FirstErrorIndex
// points at the first one (-1 when the whole batch landed), and Error
// explains it.
type reportReply struct {
	Accepted        int    `json:"accepted"`
	Rejected        int    `json:"rejected,omitempty"`
	FirstErrorIndex int    `json:"first_error_index"`
	Error           string `json:"error,omitempty"`
	Decisions       uint64 `json:"decisions"`
}

// reportBatch hands a batch to the tenant's instance and records its wall
// cost amortized per accepted report; both ingest wires end here. When
// nothing landed it writes the 400 (409 when the tenant is closing) and
// reports false; otherwise the caller renders the returned 200
// partial-accept reply in its wire's encoding.
//
//hot:path
func (s *Server) reportBatch(w http.ResponseWriter, t *tenant, nodes []int) (reportReply, bool) {
	begin := time.Now()
	res := t.inst.ReportMany(nodes)
	elapsed := time.Since(begin)
	if res.Accepted > 0 {
		perReport := float64(elapsed) / float64(res.Accepted)
		s.histMu.Lock()
		s.ingest.RecordN(perReport, uint64(res.Accepted))
		s.histMu.Unlock()
	}
	reply := reportReply{
		Accepted:        res.Accepted,
		Rejected:        len(nodes) - res.Accepted,
		FirstErrorIndex: res.FirstErr,
		Decisions:       res.Decisions,
	}
	if res.Err == nil {
		return reply, true
	}
	if res.Accepted == 0 {
		status := http.StatusBadRequest
		if errors.Is(res.Err, engine.ErrClosed) {
			status = http.StatusConflict
		}
		//lint:allow hotalloc error path: one response per rejected batch, never per report
		writeError(w, status, "report %d of %d: %v", res.FirstErr, len(nodes), res.Err)
		return reply, false
	}
	reply.Error = res.Err.Error()
	return reply, true
}

// handleReports is the JSON ingest path: decode the batch, hand it to
// the tenant's instance, record the wall cost per report. Bad rows do
// not poison the batch — the reply carries the per-item outcome.
//
//hot:path
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req reportRequest
	if err := json.NewDecoder(limitBody(w, r)).Decode(&req); err != nil {
		writeBodyError(w, "decoding report batch", err)
		return
	}
	if len(req.Nodes) == 0 {
		writeError(w, http.StatusBadRequest, "report batch is empty")
		return
	}
	if reply, ok := s.reportBatch(w, t, req.Nodes); ok {
		writeJSON(w, http.StatusOK, reply)
	}
}

// decisionsReply is the decision-stream page: the oldest decisions after
// ?since (at most maxDecisionPage), the oldest seq the tenant still
// retains, and the tenant's latest seq. A poller resumes from the page's
// last seq; a page whose last seq is below latest was cut short and more
// pages wait. A poller whose since+1 < first missed first−since−1
// decisions to the bounded ring.
type decisionsReply struct {
	Decisions []engine.Decision `json:"decisions"`
	First     uint64            `json:"first"`
	Latest    uint64            `json:"latest"`
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since value %q: %v", v, err)
			return
		}
		since = parsed
	}
	// One locked read: an empty page resumes from the tenant's last seq,
	// never past it.
	page := t.inst.DecisionPage(since, maxDecisionPage)
	if page.Decisions == nil {
		page.Decisions = []engine.Decision{}
	}
	writeJSON(w, http.StatusOK, decisionsReply{Decisions: page.Decisions, First: page.First, Latest: page.Latest})
}

func (s *Server) handleTrust(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"scheme": t.inst.SchemeName(),
		"trust":  t.inst.TrustTable(),
	})
}

// handleSnapshot serves the tenant's sealed trust state as an opaque
// binary blob (core.SealSnapshot format, RoleIssue). The blob is
// self-authenticating: restore verifies the checksum, role, and version.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	blob, err := t.inst.SealedSnapshot()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	blob, err := io.ReadAll(limitBody(w, r))
	if err != nil {
		writeBodyError(w, "reading snapshot body", err)
		return
	}
	if err := t.inst.RestoreSealed(blob); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"tenant": t.name})
}
