package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/engine"
	"github.com/tibfit/tibfit/internal/sim"
)

// mountInstance serves an engine instance on a sim kernel as tenant
// name, so a test picks the ring size and closes windows itself instead
// of waiting on the server's wall clock.
func mountInstance(t *testing.T, s *Server, name string, cfg engine.Config) (*engine.Instance, *sim.Kernel) {
	t.Helper()
	k := sim.New()
	cfg.Scheme = decision.SchemeTIBFIT
	cfg.Params = decision.Params{Trust: core.Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.5}}
	cfg.Tout = 1
	cfg.Clock = k
	inst, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.serial++
	s.tenants[name] = &tenant{name: name, inst: inst, serial: s.serial}
	s.mu.Unlock()
	return inst, k
}

// rawPage is a decision page with its decisions left as raw JSON.
type rawPage struct {
	Decisions json.RawMessage `json:"decisions"`
	First     uint64          `json:"first"`
	Latest    uint64          `json:"latest"`
}

func getPage(t *testing.T, url string) rawPage {
	t.Helper()
	status, body := do(t, http.MethodGet, url, nil)
	if status != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, status, body)
	}
	var page rawPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, body)
	}
	return page
}

// TestServeDecisionsFirstShowsLoss pins gap detection: once a 4-slot
// ring has overwritten decisions 1–6, a poller resuming from seq 2 gets
// 7–10 and first 7, so it can tell that it missed 3–6.
func TestServeDecisionsFirstShowsLoss(t *testing.T) {
	s, ts := testServer(t)
	inst, k := mountInstance(t, s, "ring", engine.Config{Members: []int{0, 1}, DecisionLog: 4})
	for i := 0; i < 10; i++ {
		if res := inst.ReportMany([]int{0, 1}); res.Err != nil {
			t.Fatal(res.Err)
		}
		k.RunAll()
	}
	page := getPage(t, ts.URL+"/v1/tenants/ring/decisions?since=2")
	var ds []engine.Decision
	if err := json.Unmarshal(page.Decisions, &ds); err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, len(ds))
	for i, d := range ds {
		seqs[i] = d.Seq
	}
	if len(seqs) != 4 || seqs[0] != 7 || seqs[3] != 10 || page.First != 7 || page.Latest != 10 {
		t.Fatalf("?since=2 after 10 decisions in a 4-slot ring: seqs %v, first %d, latest %d; want 7–10, first 7, latest 10",
			seqs, page.First, page.Latest)
	}
	if page := getPage(t, ts.URL+"/v1/tenants/ring/decisions?since=10"); string(page.Decisions) != "[]" ||
		page.First != 7 || page.Latest != 10 {
		t.Fatalf("?since=10: %s first %d latest %d, want [] first 7 latest 10", page.Decisions, page.First, page.Latest)
	}
}

// TestServeDecisionsJSONMatchesOnDecision pins the wire bytes of the
// decision stream: the page's decisions array is byte for byte the JSON
// of the decisions the scheme handed OnDecision. The stream has 130
// sparse members, ten that never report and are isolated (they then sit
// on neither side), and windows whose silent side is empty, which the
// wire writes as null.
func TestServeDecisionsJSONMatchesOnDecision(t *testing.T) {
	s, ts := testServer(t)
	ids := make([]int, 130)
	for i := range ids {
		ids[i] = 3 + 41*i + i%7
	}
	var stream []engine.Decision
	inst, k := mountInstance(t, s, "sparse", engine.Config{
		Members:    ids,
		OnDecision: func(d engine.Decision) { stream = append(stream, d) },
	})
	for w := 0; w < 30; w++ {
		var reports []int
		for i, id := range ids[:120] {
			if w%3 == 0 || (i+w)%5 != 0 {
				reports = append(reports, id)
			}
		}
		if res := inst.ReportMany(reports); res.Err != nil {
			t.Fatal(res.Err)
		}
		k.RunAll()
	}
	want, err := json.Marshal(stream)
	if err != nil {
		t.Fatal(err)
	}
	page := getPage(t, ts.URL+"/v1/tenants/sparse/decisions?since=0")
	if !bytes.Equal(page.Decisions, want) {
		t.Fatalf("decisions JSON differs from the OnDecision stream:\n got %s\nwant %s", page.Decisions, want)
	}
	if !bytes.Contains(page.Decisions, []byte(`"silent":null`)) {
		t.Fatal(`no window with an empty silent side: the stream does not cover "silent":null`)
	}
	if page.First != 1 || page.Latest != uint64(len(stream)) {
		t.Fatalf("first %d latest %d, want 1 and %d", page.First, page.Latest, len(stream))
	}
}

// TestServeDecisionsPaging pins the page cap: on a full 4096-entry ring
// no poll returns more than maxDecisionPage decisions, latest stays the
// tenant's last seq on every page, a page is cut short exactly when its
// last seq is below latest — the signal that tells a poller not to jump
// to latest — and a poller resuming from each page's last seq reads
// every seq exactly once.
func TestServeDecisionsPaging(t *testing.T) {
	s, ts := testServer(t)
	inst, k := mountInstance(t, s, "full", engine.Config{Members: []int{0, 1, 2}})
	const total = 4096
	for i := 0; i < total; i++ {
		if res := inst.ReportMany([]int{0, 1}); res.Err != nil {
			t.Fatal(res.Err)
		}
		k.RunAll()
	}
	seen := make(map[uint64]int, total)
	var since uint64
	pages := 0
	for {
		page := getPage(t, fmt.Sprintf("%s/v1/tenants/full/decisions?since=%d", ts.URL, since))
		var ds []engine.Decision
		if err := json.Unmarshal(page.Decisions, &ds); err != nil {
			t.Fatal(err)
		}
		if page.Latest != total || page.First != 1 {
			t.Fatalf("page after %d has first %d latest %d, want 1 and %d", since, page.First, page.Latest, total)
		}
		if len(ds) == 0 {
			break
		}
		if len(ds) > maxDecisionPage {
			t.Fatalf("page after %d holds %d decisions, want at most %d", since, len(ds), maxDecisionPage)
		}
		last := ds[len(ds)-1].Seq
		if cut := len(ds) == maxDecisionPage && last < total; cut != (last < page.Latest) {
			t.Fatalf("page after %d ends at seq %d with latest %d: a cut page must end below latest, a whole one at it", since, last, page.Latest)
		}
		for _, d := range ds {
			seen[d.Seq]++
		}
		since = last
		pages++
	}
	if want := total / maxDecisionPage; pages != want {
		t.Fatalf("%d pages, want %d", pages, want)
	}
	for seq := uint64(1); seq <= total; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d read %d times, want once", seq, seen[seq])
		}
	}
}
