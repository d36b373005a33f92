package engine

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
)

// hasPointers reports whether a value of type t holds anything the GC
// must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// retainedPerInstance builds n instances with build and returns the live
// heap they hold each, measured after a GC on both sides.
func retainedPerInstance(n int, build func() *Instance) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	insts := make([]*Instance, n)
	for i := range insts {
		insts[i] = build()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(insts)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// TestDecisionRingRetainedBytes pins what a tenant costs to hold: a
// fresh 16-member instance allocates no decision ring, a full default
// ring of 4096 decisions stays near 64 bytes a decision, and the ring's
// record type holds no pointers for the GC to scan. The full rings are
// filled through recordDecision under the instance's lock, with a 12:4
// vote: the ring's content does not depend on how a window closed, and
// a million real windows would take seconds.
func TestDecisionRingRetainedBytes(t *testing.T) {
	const (
		tenants   = 256
		freshMax  = 8 << 10
		fullMax   = 300 << 10
		nMembers  = 16
		reporters = 12
	)
	if hasPointers(reflect.TypeOf(ringEntry{})) {
		t.Fatal("ringEntry holds pointers: the GC would scan every retained decision")
	}
	kernel := sim.New()
	newInstance := func() *Instance {
		inst, err := New(Config{
			Scheme: decision.SchemeTIBFIT, Params: engineParams(),
			Tout: 1, Members: members(nMembers), Clock: kernel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	newInstance() // warm the registry and the kernel outside the measurement

	got := retainedPerInstance(tenants, newInstance)
	t.Logf("fresh instance: %.0f bytes", got)
	if got > freshMax {
		t.Errorf("a fresh %d-member instance retains %.0f bytes, want at most %d", nMembers, got, freshMax)
	}

	ids := members(nMembers)
	vote := aggregator.BinaryOutcome{Decision: core.BinaryDecision{
		Occurred: true, CTIFor: reporters, CTIAgainst: nMembers - reporters,
		Reporters: ids[:reporters], Silent: ids[reporters:],
	}}
	full := func() *Instance {
		inst := newInstance()
		inst.mu.Lock()
		for i := 0; i < defaultDecisionLog; i++ {
			vote.TriggerTime = sim.Time(i)
			vote.DecideTime = sim.Time(i + 1)
			inst.recordDecision(vote)
		}
		inst.mu.Unlock()
		return inst
	}
	got = retainedPerInstance(tenants, full)
	t.Logf("full ring: %.0f bytes", got)
	if got > fullMax {
		t.Errorf("a %d-member instance with a full ring of %d decisions retains %.0f bytes, want at most %d",
			nMembers, defaultDecisionLog, got, fullMax)
	}
}

// renderCase drives windows through an instance on a fake clock, one
// window per entry of windows (the IDs that report in it), and checks
// after each window that DecisionsSince renders exactly what OnDecision
// received: the same IDs, nil for an empty side, oldest overwritten
// first once the ring of size ring is full.
func renderCase(t *testing.T, ids []int, ring int, windows [][]int) []Decision {
	t.Helper()
	w, advance := newFakeClock()
	var stream []Decision
	inst, err := New(Config{
		Scheme: decision.SchemeTIBFIT, Params: engineParams(), Tout: 1,
		Members: ids, Clock: w, DecisionLog: ring,
		OnDecision: func(d Decision) { stream = append(stream, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	capacity := ring
	if capacity <= 0 {
		capacity = defaultDecisionLog
	}
	for i, reports := range windows {
		advance(float64(2 * i))
		if res := inst.ReportMany(reports); res.Err != nil {
			t.Fatal(res.Err)
		}
		advance(float64(2*i) + 1.5)
		page := inst.DecisionPage(0, 0)
		held := stream[max(0, len(stream)-capacity):]
		if !reflect.DeepEqual(page.Decisions, held) {
			t.Fatalf("after window %d: DecisionsSince(0) =\n%+v\nOnDecision stream tail =\n%+v", i, page.Decisions, held)
		}
		if want := uint64(len(stream) - len(held) + 1); page.First != want || page.Latest != uint64(len(stream)) {
			t.Fatalf("after window %d: first %d latest %d, want %d and %d", i, page.First, page.Latest, want, len(stream))
		}
		for since := range uint64(len(stream)) {
			if got, want := inst.DecisionsSince(since), held[max(0, int(since)-(len(stream)-len(held))):]; !reflect.DeepEqual(got, want) {
				t.Fatalf("after window %d: DecisionsSince(%d) = %+v, want %+v", i, since, got, want)
			}
		}
	}
	return stream
}

// TestDecisionsSinceRendersOnDecisionStream pins the ring's rendering of
// the member bitsets against the decisions the scheme handed
// OnDecision, bit for bit, including nil against empty.
func TestDecisionsSinceRendersOnDecisionStream(t *testing.T) {
	t.Run("sparse-130", func(t *testing.T) {
		// 130 sparse, unsorted IDs: three bitset words per side, the
		// last one partly used.
		src := rng.New(7)
		ids := make([]int, 130)
		for i := range ids {
			ids[i] = 5 + 37*i + src.Intn(30)
		}
		src.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		windows := make([][]int, 40)
		for i := range windows {
			for _, id := range ids {
				if src.Float64() < 0.6 {
					windows[i] = append(windows[i], id)
				}
			}
		}
		renderCase(t, ids, 0, windows)
	})
	t.Run("isolated", func(t *testing.T) {
		// Members 12–15 never report and are judged faulty until they
		// are isolated; from then on they sit on neither side, and the
		// silent side is empty.
		windows := make([][]int, 12)
		for i := range windows {
			windows[i] = members(12)
		}
		stream := renderCase(t, members(16), 0, windows)
		last := stream[len(stream)-1]
		if len(last.Reporters) != 12 || last.Silent != nil {
			t.Fatalf("last decision %+v, want 12 reporters and nil silent once 12–15 are isolated", last)
		}
	})
	t.Run("empty-side", func(t *testing.T) {
		// Everyone reports: the silent side is empty from the start.
		stream := renderCase(t, members(5), 0, [][]int{members(5), {0, 2}, members(5)})
		if stream[0].Silent != nil {
			t.Fatalf("first decision %+v, want nil silent", stream[0])
		}
	})
	t.Run("wraparound", func(t *testing.T) {
		windows := make([][]int, 10)
		for i := range windows {
			windows[i] = members(1 + i%5)
		}
		renderCase(t, members(5), 4, windows)
	})
}
