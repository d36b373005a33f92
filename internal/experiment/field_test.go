package experiment

import (
	"fmt"
	"runtime"
	"testing"
)

// TestRunFieldSmoke runs the default field-scale campaign and checks the
// structural outcomes: the election hit its cluster target and injected
// events are overwhelmingly detected by an all-honest population.
func TestRunFieldSmoke(t *testing.T) {
	cfg := DefaultField()
	res, err := RunField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != cfg.Nodes {
		t.Fatalf("Nodes = %d, want %d", res.Nodes, cfg.Nodes)
	}
	if res.Heads < cfg.Nodes/200 {
		t.Fatalf("only %d heads elected for %d nodes", res.Heads, res.Nodes)
	}
	if res.Detected < 0.7 {
		t.Fatalf("detected %.2f of events, want >= 0.7", res.Detected)
	}
	if res.Declarations == 0 {
		t.Fatal("no declarations at all")
	}
}

// TestRunFieldDeterministic pins the campaign's byte-level reproducibility:
// two runs from one seed agree exactly.
func TestRunFieldDeterministic(t *testing.T) {
	cfg := DefaultField()
	cfg.Nodes = 1200
	cfg.Events = 6
	a, err := RunField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestRunFieldPinned pins the default-scale campaign's full result at
// three seeds, so a change to population set-up, stream naming or
// placement that shifts any draw shows here.
func TestRunFieldPinned(t *testing.T) {
	want := []string{
		"{Nodes:2500 Heads:30 Detected:1 Declarations:20}",
		"{Nodes:2500 Heads:31 Detected:1 Declarations:12}",
		"{Nodes:2500 Heads:28 Detected:1 Declarations:13}",
	}
	for i, w := range want {
		seed := int64(i + 1)
		res, err := RunField(FieldConfig{Nodes: 2500, Events: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", res); got != w {
			t.Errorf("seed %d: got %s, want %s", seed, got, w)
		}
	}
}

// TestFieldDeclaredInOrder pins what DetectedNear's binary search relies
// on: a field campaign appends its declarations in kernel order, so
// Declared() times never decrease.
func TestFieldDeclaredInOrder(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultField()
		cfg.Seed = seed
		f, err := newField(cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		f.kernel.RunAll()
		decl := f.net.Declared()
		if len(decl) == 0 {
			t.Fatalf("seed %d: no declarations", seed)
		}
		for i := 1; i < len(decl); i++ {
			if decl[i].Time < decl[i-1].Time {
				t.Fatalf("seed %d: declaration %d at %v after %v", seed, i, decl[i].Time, decl[i-1].Time)
			}
		}
	}
}

func TestFieldConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*FieldConfig)
	}{
		{"too few nodes", func(c *FieldConfig) { c.Nodes = 2 }},
		{"clusters over nodes", func(c *FieldConfig) { c.Clusters = 1 << 30 }},
		{"no events", func(c *FieldConfig) { c.Events = 0 }},
		{"negative spacing", func(c *FieldConfig) { c.Spacing = -1 }},
	} {
		cfg := DefaultField()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if err := DefaultField().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// TestFieldRetainedBytes pins what a field node costs to hold once the
// campaign is set up: the live heap a 20k-node field retains after
// newField, measured after a GC on both sides, per node. Nodes and their
// streams held in two slabs, location aggregators reading the network's
// own position table, one Config per population, no empty per-cluster
// snapshot maps and per-node state in slices indexed by the dense node ID
// keep it near 190 bytes and 0.08 objects a node. With a heap object per
// node and per stream and a position map and table per cluster it was
// 230 bytes and 2.1 objects; with field-wide ID maps in the election and
// the network 284 bytes; and with a Config copy in every node, eager
// math/rand wrappers, empty snapshot maps and a second index 530 bytes
// and 3.2 objects.
func TestFieldRetainedBytes(t *testing.T) {
	const (
		nodes      = 20_000
		maxBytes   = 200
		maxObjects = 0.2
	)
	cfg := FieldConfig{Nodes: nodes, Events: 1, Seed: 1}.withDefaults()
	// Warm the registries and lazily built tables outside the measurement.
	if _, err := newField(FieldConfig{Nodes: 400, Events: 1, Seed: 1}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := newField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / nodes
	objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / nodes
	t.Logf("a %d-node field retains %.0f bytes and %.2f objects a node after set-up", nodes, perNode, objects)
	if perNode > maxBytes {
		t.Errorf("a field node retains %.0f bytes after set-up, want at most %d", perNode, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("a field node retains %.2f heap objects after set-up, want at most %.1f", objects, maxObjects)
	}
}
