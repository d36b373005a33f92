package network

import (
	"strings"
	"testing"

	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
)

// byzConfig is failoverConfig plus the base station's Byzantine-head
// defenses.
func byzConfig(mode string) Config {
	cfg := failoverConfig(mode)
	cfg.CHQuarantine = true
	return cfg
}

// injectAround schedules count events at the given node's position,
// period apart, starting at t0.
func injectAround(h *harness, id, count int, t0, period float64) {
	loc := h.net.nodes[id].Pos()
	for i := 0; i < count; i++ {
		ev := i
		_, _ = h.kernel.At(sim.Time(t0+float64(i)*period), func() { h.net.InjectEvent(ev, loc) })
	}
}

func TestInvertingHeadIsQuarantinedAndReplaced(t *testing.T) {
	tr := trace.New().Keep()
	h := newTracedHarness(t, byzConfig(ModeBinary), 0, 11, tr)
	heads := h.net.Heads()
	if len(heads) < 2 {
		t.Fatalf("need at least 2 clusters, got heads %v", heads)
	}
	liar := heads[0]
	h.net.CompromiseHead(liar, chaos.BehaviorInvert)

	injectAround(h, liar, 8, 10, 10)
	h.kernel.RunAll()

	if got := tr.Count(trace.KindCHByzantine); got != 1 {
		t.Fatalf("ch-byzantine records = %d, want 1", got)
	}
	// The shadow panel must have escalated the lying broadcasts...
	if tr.Count(trace.KindShadowDisagree) == 0 {
		t.Fatalf("no shadow escalations traced\ntrace: %s", tr.Summary())
	}
	// ...and the station must have quarantined and replaced the liar.
	if tr.Count(trace.KindCHQuarantined) == 0 {
		t.Fatalf("lying head never quarantined\ntrace: %s", tr.Summary())
	}
	if !h.net.Station().HeadQuarantined(liar) {
		t.Fatal("station does not report the liar quarantined")
	}
	if cur := h.net.memberOf[liar]; int(cur) == liar {
		t.Fatalf("liar %d still serving as head", liar)
	}
	// Masked decisions: the panel outvoted the lies, so the cluster's
	// events were still declared.
	if len(h.net.Declared()) == 0 {
		t.Fatal("no events declared despite shadow masking")
	}

	// Quarantine is sticky: the liar is ineligible in later elections.
	for round := 0; round < 4; round++ {
		if err := h.net.Recluster(); err != nil {
			t.Fatal(err)
		}
		for _, head := range h.net.Heads() {
			if head == liar {
				t.Fatalf("round %d re-elected quarantined head %d", round, liar)
			}
		}
	}
}

func TestSuppressingHeadDropsEvenMemberReports(t *testing.T) {
	tr := trace.New().Keep()
	h := newTracedHarness(t, byzConfig(ModeBinary), 0, 11, tr)
	head := h.net.Heads()[0]
	h.net.CompromiseHead(head, chaos.BehaviorSuppress)
	injectAround(h, head, 2, 10, 10)
	h.kernel.RunAll()
	suppressed := 0
	for _, r := range tr.Filter(trace.KindReportDropped) {
		if !strings.Contains(r.Msg, "suppressed") {
			continue
		}
		suppressed++
		if r.Node%2 != 0 {
			t.Fatalf("odd-ID member %d suppressed", r.Node)
		}
		if r.Node == head {
			t.Fatal("head suppressed its own sensing")
		}
	}
	if suppressed == 0 {
		t.Fatalf("no reports suppressed\ntrace: %s", tr.Summary())
	}
}

func TestTamperedAndReplayedUploadsRejectedUnderQuarantine(t *testing.T) {
	for _, behavior := range []chaos.Behavior{chaos.BehaviorPoison, chaos.BehaviorReplay} {
		t.Run(behavior.String(), func(t *testing.T) {
			tr := trace.New().Keep()
			h := newTracedHarness(t, byzConfig(ModeBinary), 0, 11, tr)
			heads := h.net.Heads()
			if len(heads) < 2 {
				t.Fatalf("need at least 2 clusters, got heads %v", heads)
			}
			evil := heads[0]
			evilMembers := append([]int(nil), h.net.clusters[evil].members...)
			h.net.CompromiseHead(evil, behavior)

			// Let honest trust accrue elsewhere, then hand off.
			injectAround(h, heads[1], 3, 10, 10)
			h.kernel.RunAll()
			before := h.net.Station().Snapshot()
			if err := h.net.Recluster(); err != nil {
				t.Fatal(err)
			}

			if got := tr.Count(trace.KindSnapshotRejected); got != 1 {
				t.Fatalf("snapshot-rejected records = %d, want 1\ntrace: %s", got, tr.Summary())
			}
			if !h.net.Station().HeadQuarantined(evil) {
				t.Fatal("uploader of rejected snapshot not quarantined")
			}
			// The rejected blob must not have touched persisted state:
			// clusters are disjoint, so the evil head's members could only
			// have been updated by the evil head's (rejected) upload.
			after := h.net.Station().Snapshot()
			for _, id := range evilMembers {
				b, inBefore := before[id]
				a, inAfter := after[id]
				if inBefore != inAfter || a != b {
					t.Fatalf("member %d state changed by rejected upload: %+v -> %+v", id, b, a)
				}
			}
		})
	}
}

func TestPoisonedUploadLandsWithoutQuarantine(t *testing.T) {
	// The ablation arm: with CHQuarantine off, a poisoning head slanders
	// its members straight into the station's persisted state.
	tr := trace.New().Keep()
	h := newTracedHarness(t, failoverConfig(ModeBinary), 0, 11, tr)
	evil := h.net.Heads()[0]
	members := append([]int(nil), h.net.clusters[evil].members...)
	h.net.CompromiseHead(evil, chaos.BehaviorPoison)
	// Sense a few events so the head holds judged member records to slander.
	injectAround(h, evil, 3, 10, 10)
	h.kernel.RunAll()
	if err := h.net.Recluster(); err != nil {
		t.Fatal(err)
	}
	snap := h.net.Station().Snapshot()
	slandered := 0
	for _, id := range members {
		if id == evil {
			continue
		}
		if r, ok := snap[id]; ok && r.V >= slanderV {
			slandered++
		}
	}
	if slandered == 0 {
		t.Fatal("poisoned upload did not land with quarantine disabled")
	}
	if got := tr.Count(trace.KindSnapshotRejected); got != 0 {
		t.Fatalf("snapshot-rejected records = %d with quarantine disabled", got)
	}
}

func TestStationSealedHandoffContract(t *testing.T) {
	st, err := leach.NewStation(core.Params{Lambda: 0.25, FaultRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	issued := st.Issue(5)
	version := st.IssuedVersion(5)
	if version == 0 {
		t.Fatal("Issue recorded no version")
	}
	// Re-uploading the issued blob is a replay.
	if err := st.StoreSealed(5, issued); err == nil {
		t.Fatal("issued blob accepted as upload")
	}
	// A correct upload round-trips...
	up := core.SealSnapshot(st.SealKey(), version, core.RoleUpload,
		map[int]core.Record{9: {V: 2, Faulty: 3}})
	if err := st.StoreSealed(5, up); err != nil {
		t.Fatalf("honest upload rejected: %v", err)
	}
	if st.Snapshot()[9].Faulty != 3 {
		t.Fatal("honest upload not merged")
	}
	// ...and uploading it again is a replay (version consumed).
	if err := st.StoreSealed(5, up); err == nil {
		t.Fatal("double upload accepted")
	}
}
