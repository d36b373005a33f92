// Command tibfit-net runs the whole-system assembly (figure 1): LEACH
// clusters with trust-vetoed election, base-station trust handoff,
// optional multi-hop relay, and a stream of random events, then prints a
// network-level report. It can also persist the base station's trust
// state for a later run.
//
// Usage:
//
//	tibfit-net [-nodes 64] [-faulty 0.25] [-events 120] [-rounds 4]
//	           [-multihop] [-range 16] [-scheme tibfit] [-seed 7]
//	           [-save trust.json] [-load trust.json]
//	           [-chaos] [-crash 0.2] [-headcrashes 2] [-failover]
//	           [-byzheads 2] [-chquarantine] [-retries 3] [-backoff 0.02]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/cli"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/network"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tibfit-net:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("tibfit-net", flag.ContinueOnError)
	var (
		nNodes   = fs.Int("nodes", 64, "sensor count (perfect square)")
		faulty   = fs.Float64("faulty", 0.25, "fraction compromised (level 0)")
		events   = fs.Int("events", 120, "events to inject")
		rounds   = fs.Int("rounds", 4, "leadership rounds across the run")
		multihop = fs.Bool("multihop", false, "route reports over the relay mesh")
		rng0     = fs.Int64("seed", 7, "random seed")
		rrange   = fs.Float64("range", 16, "radio range (multihop mode)")
		savePath = fs.String("save", "", "write base-station trust state to this file")
		loadPath = fs.String("load", "", "seed the base station from this file")
		showMap  = fs.Bool("map", false, "render the trust field map after the run")
		mode     = fs.String("mode", "location", "detection mode: location or binary")

		chaosOn   = fs.Bool("chaos", false, "inject the default chaos campaign (crashes, a blackout, duplication)")
		crashFrac = fs.Float64("crash", 0.2, "chaos: fraction of nodes given a crash interval")
		headCr    = fs.Int("headcrashes", 1, "chaos: serving-head crash injections")
		failover  = fs.Bool("failover", false, "enable heartbeat CH failover and ACK/backoff report retries")
		byzHeads  = fs.Int("byzheads", 0, "chaos: serving heads turned Byzantine (inversion, suppression, handoff poisoning/replay)")
		chQuar    = fs.Bool("chquarantine", false, "score heads at the base station; quarantine and re-elect compromised ones")
		retries   = fs.Int("retries", 0, "report retransmissions with ACK (overrides the -failover default when set)")
		backoff   = fs.Float64("backoff", 0, "first report retransmission delay (overrides the -failover default when set)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile after the run to this file")
	)
	var sf cli.SchemeFlags
	sf.Register(fs, "tibfit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := sf.Resolve()
	if err != nil {
		return err
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds must be at least 1")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tibfit-net: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tibfit-net: memprofile:", err)
			}
			f.Close()
		}()
	}

	kernel := sim.New()
	root := rng.New(*rng0)

	netCfg := network.DefaultConfig()
	netCfg.Scheme = scheme
	netCfg.Trust = sf.ApplyTrust(netCfg.Trust)
	netCfg.Multihop = *multihop
	netCfg.Mode = *mode
	if *failover {
		netCfg.HeartbeatPeriod = netCfg.Tout / 5
		netCfg.HeartbeatMisses = 3
		netCfg.ReportRetries = 3
		netCfg.ReportBackoff = netCfg.Tout / 50
	}
	netCfg.CHQuarantine = *chQuar
	// Explicit -retries/-backoff win over the -failover presets. The
	// values go to network.New unclamped so a negative or NaN argument
	// is rejected with the config's own message instead of being
	// silently repaired.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "retries":
			netCfg.ReportRetries = *retries
		case "backoff":
			netCfg.ReportBackoff = sim.Duration(*backoff)
		}
	})

	chCfg := radio.DefaultConfig()
	chCfg.DropProb = 0.02
	if *multihop {
		chCfg.Range = *rrange
	}
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	nodeCfg := node.Config{
		MissProb:     0.25,
		SigmaCorrect: 1.6,
		SigmaFaulty:  4.25,
		SenseRadius:  netCfg.SenseRadius,
		LowerTI:      0.5,
		UpperTI:      0.8,
		Trust:        netCfg.Trust,
	}

	side := 1
	for side*side < *nNodes {
		side++
	}
	if side*side != *nNodes {
		return fmt.Errorf("-nodes must be a perfect square, got %d", *nNodes)
	}
	fieldSide := float64(side) * 10
	area := geo.NewRect(fieldSide, fieldSide)
	positions := workload.GridPlacement(area, *nNodes)
	nFaulty := int(float64(*nNodes)**faulty + 0.5)
	nodes, err := node.NewPopulation(&nodeCfg, positions, root)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		if i < nFaulty {
			n.Compromise(node.Level0)
		}
		n.AttachBattery(energy.NewBattery(1e7))
	}

	tr := trace.New()
	net, err := network.New(netCfg, kernel, channel, nodes, root.Split("net"), tr)
	if err != nil {
		return err
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		loaded, err := leach.LoadStation(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		net.Station().StoreSnapshot(loaded.NewTable().Snapshot())
		if err := net.Recluster(); err != nil {
			return err
		}
		fmt.Fprintf(out, "seeded base station from %s\n", *loadPath)
	}

	fmt.Fprintf(out, "%d nodes (%d faulty), %d clusters, scheme=%s multihop=%t\n",
		*nNodes, nFaulty, len(net.Heads()), scheme, *multihop)

	evSrc := root.Split("events")
	period := 10.0

	var engine *chaos.Engine
	if *chaosOn || *byzHeads != 0 {
		// -byzheads alone gets a compromise-only campaign: no crashes,
		// blackouts or packet perturbation, so a run differs from the
		// fault-free one exactly by the adversarial heads.
		chaosCfg := chaos.Config{Horizon: float64(*events) * period}
		if *chaosOn {
			chaosCfg = chaos.DefaultConfig(float64(*events) * period)
			chaosCfg.CrashFraction = *crashFrac
			chaosCfg.HeadCrashes = *headCr
		}
		chaosCfg.ByzHeads = *byzHeads
		csrc := root.Split("chaos")
		engine, err = chaos.New(chaosCfg, kernel, csrc, tr)
		if err != nil {
			return err
		}
		if err := engine.Arm(net, csrc); err != nil {
			return err
		}
		if *chaosOn {
			channel.SetPerturber(engine)
			fmt.Fprintf(out, "chaos: %d planned faults (crash=%.0f%% headcrashes=%d), failover=%t\n",
				len(engine.Plan()), *crashFrac*100, *headCr, *failover)
		}
		if *byzHeads > 0 {
			fmt.Fprintf(out, "byzantine: %d head compromises planned, quarantine=%t\n",
				*byzHeads, *chQuar)
		}
	}
	rotateEvery := *events / *rounds
	if rotateEvery < 1 {
		rotateEvery = 1
	}
	detected, total := 0, 0
	for i := 0; i < *events; i++ {
		if i > 0 && i%rotateEvery == 0 {
			at := sim.Time(float64(i)*period + period/2)
			if _, err := kernel.At(at, func() {
				if err := net.Recluster(); err != nil {
					panic(err)
				}
			}); err != nil {
				return err
			}
		}
		loc := geo.Point{
			X: evSrc.Uniform(0, fieldSide),
			Y: evSrc.Uniform(0, fieldSide),
		}
		at := sim.Time(float64(i+1) * period)
		i := i
		total++
		if _, err := kernel.At(at, func() { net.InjectEvent(i, loc) }); err != nil {
			return err
		}
		if _, err := kernel.At(at+sim.Time(period/2), func() {
			if *mode == network.ModeBinary {
				// Binary declarations carry no location; match by time.
				for _, d := range net.Declared() {
					if d.Time >= at {
						detected++
						return
					}
				}
				return
			}
			if net.DetectedNear(loc, at, netCfg.RError) {
				detected++
			}
		}); err != nil {
			return err
		}
	}
	kernel.RunAll()

	fmt.Fprintf(out, "detected %d/%d events (%.1f%%) over %d leadership rounds\n",
		detected, total, 100*float64(detected)/float64(total), net.Rounds())
	if engine != nil && *chaosOn {
		st := engine.Stats()
		outage, duplicated := channel.ChaosStats()
		fmt.Fprintf(out, "chaos: crashes=%d (heads=%d) recoveries=%d blackouts=%d outage-drops=%d dup-packets=%d\n",
			st.Crashes, st.HeadCrashes, st.Recoveries, st.Blackouts, outage, duplicated)
		fmt.Fprintf(out, "resilience: failovers=%d orphaned=%d retries=%d depleted=%d\n",
			tr.Count(trace.KindCHFailover), tr.Count(trace.KindClusterOrphaned),
			tr.Count(trace.KindReportRetry), tr.Count(trace.KindNodeDepleted))
	}
	if *byzHeads > 0 || *chQuar {
		fmt.Fprintf(out, "byzantine: compromised=%d escalations=%d quarantined=%d snapshot-rejections=%d\n",
			tr.Count(trace.KindCHByzantine), tr.Count(trace.KindShadowDisagree),
			tr.Count(trace.KindCHQuarantined), tr.Count(trace.KindSnapshotRejected))
	}
	if m := net.Mesh(); m != nil {
		deliv, failed, retries, hops := m.Stats()
		fmt.Fprintf(out, "relay: delivered=%d hops=%d retries=%d failed=%d\n",
			deliv, hops, retries, failed)
	}
	station := net.Station()
	diagnosed := 0
	for i := 0; i < nFaulty; i++ {
		if station.TI(i) < 0.5 {
			diagnosed++
		}
	}
	fmt.Fprintf(out, "diagnosed %d/%d faulty nodes below TI 0.5\n", diagnosed, nFaulty)
	if *showMap {
		fmt.Fprint(out, net.RenderField(2*side, side))
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := station.Save(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved base-station trust state to %s\n", *savePath)
	}
	return nil
}
