package shadow

import (
	"reflect"
	"strings"
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/rng"
)

func params() core.Params {
	return core.Params{Lambda: 0.25, FaultRate: 0.1}
}

func TestNewPanelRejectsBadParams(t *testing.T) {
	if _, err := NewPanel(core.Params{}, 0, nil, nil); err == nil {
		t.Fatal("accepted invalid params")
	}
}

func TestHonestPanelNeverDisagrees(t *testing.T) {
	p, err := NewPanel(params(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rep := p.Decide([]int{1, 2, 3}, []int{4, 5})
		if rep.Disagreed || rep.Demoted {
			t.Fatalf("round %d: honest CH flagged: %+v", i, rep)
		}
		if !rep.Final.Occurred {
			t.Fatalf("round %d: majority reporters lost", i)
		}
	}
	rounds, dis, dem := p.Stats()
	if rounds != 50 || dis != 0 || dem != 0 {
		t.Fatalf("stats = %d %d %d", rounds, dis, dem)
	}
}

func TestCorruptPrimaryIsExposedAndOutvoted(t *testing.T) {
	demoted := []int{}
	corrupt := FlipCorruptor(1, func(float64) bool { return true }) // always lie
	p, err := NewPanel(params(), 42, corrupt, func(id int) { demoted = append(demoted, id) })
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Decide([]int{1, 2, 3}, []int{4})
	if !rep.Disagreed {
		t.Fatal("corruption not detected")
	}
	if !rep.Demoted {
		t.Fatal("corrupt primary not demoted")
	}
	// The base station's majority (the two shadows) must prevail: 3
	// reporters vs 1 silent → event occurred, despite the primary's flip.
	if !rep.Final.Occurred {
		t.Fatalf("final decision followed the corrupt primary: %+v", rep)
	}
	if len(demoted) != 1 || demoted[0] != 42 {
		t.Fatalf("penalty hook calls = %v", demoted)
	}
}

func TestLyingShadowIsOutvoted(t *testing.T) {
	// Satellite pin of the 2-of-3 semantics when a *shadow*, not the
	// primary, is the liar: the escalation fires (Disagreed), the
	// majority of honest primary + honest shadow prevails, and the
	// primary — whose broadcast matched the majority — is not demoted.
	for idx := 0; idx < 2; idx++ {
		demoted := []int{}
		p, err := NewPanel(params(), 42, nil, func(id int) { demoted = append(demoted, id) })
		if err != nil {
			t.Fatal(err)
		}
		p.SetShadowCorruptor(idx, FlipCorruptor(1, func(float64) bool { return true }))
		rep := p.Decide([]int{1, 2, 3}, []int{4})
		if !rep.Disagreed {
			t.Fatalf("shadow %d: lying escalation not flagged", idx)
		}
		if rep.Demoted {
			t.Fatalf("shadow %d: honest primary demoted", idx)
		}
		if !rep.Final.Occurred {
			t.Fatalf("shadow %d: final decision followed the lying shadow: %+v", idx, rep)
		}
		if len(demoted) != 0 {
			t.Fatalf("shadow %d: penalty hook fired for honest primary: %v", idx, demoted)
		}
	}
}

func TestLyingShadowDoesNotPoisonTrustState(t *testing.T) {
	// The masked lying shadow must leave the settled trust state equal
	// to an all-honest panel's: the final decision is based on the
	// honest replicated computation, not the tampered escalation.
	liar, _ := NewPanel(params(), 0, nil, nil)
	liar.SetShadowCorruptor(1, FlipCorruptor(1, func(float64) bool { return true }))
	honest, _ := NewPanel(params(), 0, nil, nil)
	for i := 0; i < 20; i++ {
		liar.Decide([]int{1, 2, 3}, []int{4})
		honest.Decide([]int{1, 2, 3}, []int{4})
	}
	a := liar.Snapshot()
	b := honest.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for id, rec := range b {
		if a[id] != rec {
			t.Fatalf("node %d state diverged: %+v vs %+v", id, a[id], rec)
		}
	}
}

func TestCorruptionDoesNotPoisonTrustState(t *testing.T) {
	// The single-CH-failure masking property (§3.4): trust state after a
	// masked corruption equals the state of an all-honest panel.
	corrupt := FlipCorruptor(1, func(float64) bool { return true })
	corruptPanel, _ := NewPanel(params(), 0, corrupt, nil)
	honestPanel, _ := NewPanel(params(), 0, nil, nil)
	for i := 0; i < 20; i++ {
		corruptPanel.Decide([]int{1, 2, 3}, []int{4})
		honestPanel.Decide([]int{1, 2, 3}, []int{4})
	}
	a := corruptPanel.Snapshot()
	b := honestPanel.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for id, rec := range b {
		if a[id] != rec {
			t.Fatalf("node %d state diverged: %+v vs %+v", id, a[id], rec)
		}
	}
}

func TestProbabilisticCorruptor(t *testing.T) {
	src := rng.New(9)
	corrupt := FlipCorruptor(0.3, src.Bernoulli)
	p, _ := NewPanel(params(), 0, corrupt, nil)
	for i := 0; i < 500; i++ {
		p.Decide([]int{1, 2}, []int{3})
	}
	_, dis, _ := p.Stats()
	if dis < 100 || dis > 200 {
		t.Fatalf("disagreements = %d over 500 rounds at p=0.3", dis)
	}
}

func TestRestoreLoadsAllReplicas(t *testing.T) {
	seed := core.MustNewTable(params())
	for i := 0; i < 8; i++ {
		seed.Judge(7, false)
	}
	snap := seed.Snapshot()

	p, _ := NewPanel(params(), 0, nil, nil)
	p.Restore(snap)
	// A vote involving node 7 must reflect the restored distrust in both
	// primary and shadows: 2 fresh reporters beat distrusted node 7 + 1.
	rep := p.Decide([]int{1, 2}, []int{7, 3})
	if !rep.Final.Occurred {
		t.Fatalf("restored trust not applied: %+v", rep.Final)
	}
	if rep.Disagreed {
		t.Fatal("replicas disagreed after identical restore")
	}
	if p.Primary().TI(7) >= 0.5 {
		t.Fatal("primary table missing restored state")
	}
}

// TestRestoreNilIsEmpty: a panel restored from nil — what the station's
// member-filtered export returns for a cluster it holds no records of —
// behaves exactly like one restored from an empty map, for every
// registered scheme.
func TestRestoreNilIsEmpty(t *testing.T) {
	for _, name := range decision.Names() {
		var panels [2]*Panel
		for i, snap := range []map[int]core.Record{nil, {}} {
			p, err := NewPanelScheme(name, decision.Params{Trust: params()}, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 6; j++ {
				p.DecideAndSettle([]int{1, 2, 3}, []int{7})
			}
			p.Restore(snap)
			panels[i] = p
		}
		a, b := panels[0], panels[1]
		if len(a.Snapshot()) != 0 || len(b.Snapshot()) != 0 {
			t.Fatalf("%s: restore left records behind", name)
		}
		for j := 0; j < 6; j++ {
			da := a.DecideAndSettle([]int{1, 7}, []int{2, 3})
			db := b.DecideAndSettle([]int{1, 7}, []int{2, 3})
			if !reflect.DeepEqual(da, db) {
				t.Fatalf("%s: decision %d differs: %+v vs %+v", name, j, da, db)
			}
		}
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("%s: snapshots diverged after Restore(nil) vs Restore(empty)", name)
		}
	}
}

func TestSetPrimaryNodeRoutesPenalty(t *testing.T) {
	var got []int
	corrupt := FlipCorruptor(1, func(float64) bool { return true })
	p, _ := NewPanel(params(), 1, corrupt, func(id int) { got = append(got, id) })
	p.Decide([]int{1, 2}, []int{3})
	p.SetPrimaryNode(9)
	p.Decide([]int{1, 2}, []int{3})
	if len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("penalties = %v", got)
	}
}

func TestPanelString(t *testing.T) {
	p, _ := NewPanel(params(), 0, nil, nil)
	p.Decide([]int{1}, nil)
	if s := p.String(); !strings.Contains(s, "rounds=1") {
		t.Fatalf("String = %q", s)
	}
}
