package experiment

import "testing"

// BenchmarkRunField1M runs one million-node field campaign per op: a
// uniform population, LEACH election into 10k clusters, and 3
// location-mode events through the whole report/aggregate/decide
// pipeline. It is the only runner at this scale; the repository
// benchmark's field-100k workload covers the 100k field.
func BenchmarkRunField1M(b *testing.B) {
	cfg := FieldConfig{Nodes: 1_000_000, Clusters: 10_000, Events: 3, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunField(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Declarations == 0 {
			b.Fatal("campaign declared nothing")
		}
	}
}
