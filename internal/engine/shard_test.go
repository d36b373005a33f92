package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
)

func TestShardMembers(t *testing.T) {
	// Round-robin over sorted order: sorted member i -> shard i%n.
	parts := ShardMembers([]int{30, 10, 50, 20, 40}, 2)
	want := [][]int{{10, 30, 50}, {20, 40}}
	if len(parts) != len(want) {
		t.Fatalf("parts = %v, want %v", parts, want)
	}
	for s := range want {
		if len(parts[s]) != len(want[s]) {
			t.Fatalf("shard %d = %v, want %v", s, parts[s], want[s])
		}
		for k := range want[s] {
			if parts[s][k] != want[s][k] {
				t.Fatalf("shard %d = %v, want %v", s, parts[s], want[s])
			}
		}
	}
	// Clamping: zero and negative mean 1; above the population, the
	// population.
	if got := ShardMembers([]int{1, 2, 3}, 0); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("n=0: %v, want one shard of 3", got)
	}
	if got := ShardMembers([]int{1, 2, 3}, 99); len(got) != 3 {
		t.Fatalf("n=99: %d shards, want 3 (clamped to population)", len(got))
	}
}

// shardOwners maps each node to its shard index under ShardMembers.
func shardOwners(parts [][]int) map[int]int {
	owner := make(map[int]int)
	for s, part := range parts {
		for _, id := range part {
			owner[id] = s
		}
	}
	return owner
}

// TestShardedEngineMatchesBatchSim is the sharding correctness proof,
// extending the PR-9 online-vs-batch equivalence suite: one seeded
// report stream runs through (a) the batch reference — one shared scheme
// instance behind S independent aggregator.Binary pipelines on one sim
// kernel, each owning one location's member subset — and (b) the sharded
// Instance on a stub-driven WallClock, with per-shard scheme instances
// and per-shard locks. For every registered scheme the two must produce
// bit-identical decision streams, in the clock's (deadline, seq) fan-in
// order, and bit-identical final trust for every member. The shared
// scheme on the batch side is what makes this a real proof: splitting
// one scheme into per-shard instances is only sound because every
// registered scheme keeps per-node state, and any cross-node coupling a
// future scheme smuggled in would diverge here.
func TestShardedEngineMatchesBatchSim(t *testing.T) {
	const (
		nMembers = 11
		nShards  = 4
		nReports = 500
		tout     = sim.Duration(0.7)
		seed     = 43
	)
	stream := seededStream(seed, nReports, nMembers)
	parts := ShardMembers(members(nMembers), nShards)
	owner := shardOwners(parts)
	for _, name := range decision.Names() {
		t.Run(name, func(t *testing.T) {
			// Batch reference: S location pipelines, one shared scheme,
			// one kernel total order.
			k := sim.New()
			scheme, err := decision.New(name, engineParams())
			if err != nil {
				t.Fatal(err)
			}
			var batch []flatDecision
			aggs := make([]*aggregator.Binary, len(parts))
			for s, part := range parts {
				agg, err := aggregator.NewBinary(aggregator.BinaryConfig{
					Tout: tout, Members: part,
				}, scheme, k, func(o aggregator.BinaryOutcome) {
					batch = append(batch, flatten(o.Decision))
				}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				aggs[s] = agg
			}
			for _, ev := range stream {
				ev := ev
				if _, err := k.At(ev.at, func() { aggs[owner[ev.node]].Deliver(ev.node) }); err != nil {
					t.Fatal(err)
				}
			}
			k.RunAll()

			// Online: the sharded instance on a stubbed wall clock.
			w, advance := stubClock()
			defer w.Close()
			var online []flatDecision
			var seqs []uint64
			inst, err := New(Config{
				Scheme:  name,
				Params:  engineParams(),
				Tout:    tout,
				Members: members(nMembers),
				Shards:  nShards,
				Clock:   w,
				OnDecision: func(d Decision) {
					seqs = append(seqs, d.Seq)
					online = append(online, flatDecision{
						occurred:   d.Occurred,
						ctiFor:     d.CTIFor,
						ctiAgainst: d.CTIAgainst,
						reporters:  intsKey(d.Reporters),
						silent:     intsKey(d.Silent),
					})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			if inst.Shards() != nShards {
				t.Fatalf("Shards() = %d, want %d", inst.Shards(), nShards)
			}
			for _, ev := range stream {
				advance(float64(ev.at))
				w.fire()
				if err := inst.Report(ev.node); err != nil {
					t.Fatal(err)
				}
			}
			advance(float64(stream[len(stream)-1].at) + float64(tout) + 1)
			w.fire() // drain every shard's final window

			if len(batch) != len(online) {
				t.Fatalf("batch made %d decisions, online %d", len(batch), len(online))
			}
			for i := range batch {
				if batch[i] != online[i] {
					t.Fatalf("decision %d diverges:\n batch  %+v\n online %+v", i, batch[i], online[i])
				}
			}
			for i, s := range seqs {
				if s != uint64(i+1) {
					t.Fatalf("fan-in seq %d at position %d: the ring must number decisions in drain order", s, i)
				}
			}
			for i := 0; i < nMembers; i++ {
				//lint:allow floateq equivalence demands bit-identical trust, not approximate
				if scheme.TI(i) != inst.TI(i) {
					t.Fatalf("final TI(%d): batch %v, online %v", i, scheme.TI(i), inst.TI(i))
				}
			}
			wantTable := make([]TrustEntry, nMembers)
			for i := range wantTable {
				wantTable[i] = TrustEntry{Node: i, TI: scheme.TI(i), Isolated: scheme.Isolated(i)}
			}
			gotTable := inst.TrustTable()
			for i := range wantTable {
				//lint:allow floateq equivalence demands bit-identical trust, not approximate
				if gotTable[i] != wantTable[i] {
					t.Fatalf("trust row %d: sharded %+v, want %+v", i, gotTable[i], wantTable[i])
				}
			}
		})
	}
}

// TestShardCountOnePinsLegacy pins Shards=1 as the legacy single-lock
// single-window instance: explicitly configured and default-configured
// instances must agree decision for decision on the same stream, and
// both report one shard.
func TestShardCountOnePinsLegacy(t *testing.T) {
	const (
		nMembers = 7
		nReports = 300
		tout     = sim.Duration(0.7)
	)
	stream := seededStream(7, nReports, nMembers)
	run := func(shards int) ([]flatDecision, *Instance) {
		w, advance := stubClock()
		var out []flatDecision
		inst, err := New(Config{
			Scheme:  decision.SchemeTIBFIT,
			Params:  engineParams(),
			Tout:    tout,
			Members: members(nMembers),
			Shards:  shards,
			Clock:   w,
			OnDecision: func(d Decision) {
				out = append(out, flatDecision{
					occurred:   d.Occurred,
					ctiFor:     d.CTIFor,
					ctiAgainst: d.CTIAgainst,
					reporters:  intsKey(d.Reporters),
					silent:     intsKey(d.Silent),
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range stream {
			advance(float64(ev.at))
			w.fire()
			if err := inst.Report(ev.node); err != nil {
				t.Fatal(err)
			}
		}
		advance(float64(stream[len(stream)-1].at) + float64(tout) + 1)
		w.fire()
		return out, inst
	}
	explicit, instE := run(1)
	defer instE.Close()
	deflt, instD := run(0)
	defer instD.Close()
	if instE.Shards() != 1 || instD.Shards() != 1 {
		t.Fatalf("Shards() = %d/%d, want 1/1", instE.Shards(), instD.Shards())
	}
	if len(explicit) == 0 || len(explicit) != len(deflt) {
		t.Fatalf("decision counts diverge: explicit %d, default %d", len(explicit), len(deflt))
	}
	for i := range explicit {
		if explicit[i] != deflt[i] {
			t.Fatalf("decision %d diverges between Shards=1 and default", i)
		}
	}
}

// TestInstanceConcurrentStress hammers one sharded instance from many
// goroutines under the race detector: parallel single reports, batches
// crossing shard boundaries, decision polls, trust reads, and sealed
// snapshot/restore cycles, with real wall-clock expiries firing
// throughout, and every call draining due windows on its own. The
// assertions are deliberately weak — counters move, no call panics or
// deadlocks, decision deadlines never step back — because the property
// under test is the locking discipline, not the arithmetic (the
// equivalence suite owns that).
func TestInstanceConcurrentStress(t *testing.T) {
	const (
		nMembers = 64
		nShards  = 8
		writers  = 4
		batches  = 400
	)
	inst, err := New(Config{
		Scheme:  decision.SchemeTIBFIT,
		Params:  engineParams(),
		Tout:    2,
		Members: members(nMembers),
		Shards:  nShards,
		Clock:   NewWallClock(200 * time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	var writersWG, pollersWG sync.WaitGroup
	done := make(chan struct{})
	for wkr := 0; wkr < writers; wkr++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			src := rng.New(seed)
			batch := make([]int, 16)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = src.Intn(nMembers)
				}
				if i%7 == 0 {
					batch[src.Intn(len(batch))] = nMembers + 1000 // one bad row
				}
				res := inst.ReportMany(batch)
				if res.Err != nil && !errors.Is(res.Err, ErrUnknownNode) {
					t.Errorf("ReportMany: %v", res.Err)
					return
				}
				if err := inst.Report(src.Intn(nMembers)); err != nil {
					t.Errorf("Report: %v", err)
					return
				}
			}
		}(int64(wkr + 1))
	}
	pollersWG.Add(1)
	go func() { // decision and trust pollers
		defer pollersWG.Done()
		var since uint64
		var last float64
		for {
			select {
			case <-done:
				return
			default:
			}
			// Drains close windows in deadline order under one lock,
			// whichever goroutine or timer runs them, so the ring's
			// deadlines never step back.
			for _, d := range inst.DecisionsSince(since) {
				if d.Decided < last {
					t.Errorf("decision %d decided at %v, after one decided at %v", d.Seq, d.Decided, last)
				}
				since, last = d.Seq, d.Decided
			}
			_ = inst.TrustTable()
			_ = inst.IsolatedNodes()
			_ = inst.TI(3)
		}
	}()
	pollersWG.Add(1)
	go func() { // snapshot/restore cycles
		defer pollersWG.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			blob, err := inst.SealedSnapshot()
			if err != nil {
				t.Errorf("SealedSnapshot: %v", err)
				return
			}
			if i%2 == 1 {
				if err := inst.RestoreSealed(blob); err != nil && !errors.Is(err, ErrSnapshotStale) {
					t.Errorf("RestoreSealed: %v", err)
					return
				}
			}
		}
	}()
	// Writers run to completion with the pollers hammering alongside;
	// then the pollers stand down and the instance closes under them.
	writersWG.Wait()
	close(done)
	pollersWG.Wait()
	if got := inst.ReportCount(); got == 0 {
		t.Fatal("no reports accepted under stress")
	}
	inst.Close()
	if err := inst.Report(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Report = %v, want ErrClosed", err)
	}
}
