package experiment

import "testing"

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
