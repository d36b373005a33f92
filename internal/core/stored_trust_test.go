package core

import (
	"testing"

	"github.com/tibfit/tibfit/internal/rng"
)

// TestStoredTrustMatchesRecord checks the trust index each record carries
// against the §3 mapping recomputed from the record itself, after seeded
// random Judge, Isolate and Restore sequences in both trust models. A
// Restore hands the state, perturbed, either back to the same table or to
// a fresh one, as a successor head would receive it.
func TestStoredTrustMatchesRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"exponential", Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.2}},
		{"linear", Params{Lambda: 0.1, FaultRate: 0.05, RemovalThreshold: 0.3, Linear: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes = 40
			for seed := int64(1); seed <= 20; seed++ {
				src := rng.New(seed)
				tab := MustNewTable(tc.p)
				for op := 0; op < 400; op++ {
					node := src.Intn(nodes)
					switch k := src.Intn(20); {
					case k == 0:
						tab.Isolate(node)
					case k == 1:
						snap := tab.Snapshot()
						for _, id := range tab.Nodes() {
							r := snap[id]
							r.V = src.Uniform(0, 15)
							snap[id] = r
						}
						if src.Intn(2) == 0 {
							tab = MustNewTable(tc.p)
						}
						tab.Restore(snap)
					default:
						tab.Judge(node, src.Float64() < 0.7)
					}
					checkStoredTrust(t, tc.p, tab, nodes+5, seed, op)
				}
			}
		})
	}
}

// checkStoredTrust compares TI and Weight for nodes 0…n-1 with the values
// recomputed from each node's record: trustOf(V), a zero weight once
// isolated, and full trust for nodes the table has never seen.
func checkStoredTrust(t *testing.T, p Params, tab *Table, n int, seed int64, op int) {
	t.Helper()
	for node := 0; node < n; node++ {
		r, ok := tab.Record(node)
		wantTI, wantW := 1.0, 1.0
		if ok {
			wantTI = p.trustOf(r.V)
			wantW = wantTI
			if r.Isolated {
				wantW = 0
			}
		}
		if got := tab.TI(node); got != wantTI {
			t.Fatalf("seed %d op %d: TI(%d) = %v, want %v from %+v", seed, op, node, got, wantTI, r)
		}
		if got := tab.Weight(node); got != wantW {
			t.Fatalf("seed %d op %d: Weight(%d) = %v, want %v from %+v", seed, op, node, got, wantW, r)
		}
	}
}
