package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/tibfit/tibfit/internal/experiment"
)

// paperFigures is the paper's own campaign: figures 2-9.
var paperFigures = []string{"figure2", "figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9"}

// Field campaign size: 100k nodes in 1k clusters, with enough events
// that the per-event path weighs beside the set-up.
const (
	fieldNodes    = 100_000
	fieldClusters = 1_000
	fieldEvents   = 10_000
)

// simSetups is how many set-ups an untraced sim run times; it reports
// their median.
const simSetups = 3

// simJob runs a sim workload once, at full size or at set-up size (one
// event), plain or through the pass-through decision scheme, and returns
// its outputs, which two runs of the same seed must reproduce exactly.
type simJob func(seed int64, setupOnly, traced bool) (string, error)

var simJobs = map[string]simJob{
	"paper-campaign": paperJob,
	"field-100k":     fieldJob,
}

func paperJob(seed int64, setupOnly, traced bool) (string, error) {
	opts := experiment.FigureOptions{Runs: 1, Seed: seed, Parallel: 1}
	if setupOnly {
		opts.Events = 1
	}
	if traced {
		opts.Scheme = passThroughScheme
	}
	var csv bytes.Buffer
	for _, id := range paperFigures {
		fig, err := experiment.Generate(id, opts)
		if err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
		csv.WriteString(fig.CSV())
	}
	return csv.String(), nil
}

func fieldJob(seed int64, setupOnly, _ bool) (string, error) {
	cfg := experiment.FieldConfig{Nodes: fieldNodes, Clusters: fieldClusters, Events: fieldEvents, Seed: seed}
	if setupOnly {
		cfg.Events = 1
	}
	res, err := experiment.RunField(cfg)
	if err != nil {
		return "", err
	}
	if res.Nodes != cfg.Nodes || res.Heads == 0 || res.Declarations == 0 {
		return "", fmt.Errorf("implausible field result %+v", res)
	}
	return fmt.Sprintf("%+v", res), nil
}

// simRun is one timed run of a sim job in one process.
type simRun struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	PeakMB float64 `json:"peak_rss_mb"`
	Digest string  `json:"digest"` // SHA-256 of the job's outputs
}

// timeJob runs the job once in this process and times it.
func timeJob(job simJob, seed int64, setupOnly, traced bool) (simRun, error) {
	cpu0, start := selfCPU(), time.Now()
	res, err := job(seed, setupOnly, traced)
	wall, cpu := time.Since(start), selfCPU()-cpu0
	if err != nil {
		return simRun{}, err
	}
	peak, err := peakRSSMB(0)
	if err != nil {
		return simRun{}, err
	}
	sum := sha256.Sum256([]byte(res))
	return simRun{WallS: wall.Seconds(), CPUS: cpu.Seconds(), PeakMB: peak, Digest: hex.EncodeToString(sum[:])}, nil
}

// runSimChild is the body of a child process: one run of the job,
// printed as a JSON line.
func runSimChild(o options, setupOnly bool) error {
	runtime.GOMAXPROCS(1)
	r, err := timeJob(simJobs[o.workload], o.seed, setupOnly, false)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// spawnSim runs the job once in a fresh child process at GOMAXPROCS 1,
// as a user runs the campaign: every repetition starts from an empty
// heap, and the child's peak RSS is that repetition's alone.
func spawnSim(o options, setupOnly bool) (simRun, error) {
	self, err := os.Executable()
	if err != nil {
		return simRun{}, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10)}
	if setupOnly {
		args = append(args, "-setup")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = orphanKill
	stdout, err := cmd.Output()
	if err != nil {
		return simRun{}, fmt.Errorf("child run: %w", err)
	}
	var r simRun
	if err := json.Unmarshal(stdout, &r); err != nil {
		return simRun{}, fmt.Errorf("child run output %q: %w", stdout, err)
	}
	return r, nil
}

func runPaperCampaign(o options, out *outcome) error {
	if err := runSim(o, out); err != nil {
		return err
	}
	for _, g := range goldenFigures {
		err := goldenProbe(o.root, g)
		out.check(err == nil, "golden %s: %v", g.id, err)
	}
	return nil
}

// runSim measures a sim workload at GOMAXPROCS 1: the campaign's own
// single-threaded baseline, with replicates run in turn.
func runSim(o options, out *outcome) error {
	runtime.GOMAXPROCS(1)
	out.gomaxprocs["bench"] = 1
	if !o.trace {
		e, _, err := measureSim(o, out, simSetups, o.seconds)
		if err != nil {
			return err
		}
		out.setEndToEnd(e)
		return nil
	}

	// Traced run: one untraced set-up and job in child processes, then
	// the same in this process under the CPU profiler and the
	// pass-through decision scheme.
	out.zeroPerLayer()
	untraced, plain, err := measureSim(o, out, 1, 0)
	if err != nil {
		return err
	}
	registerPassThrough()
	job := simJobs[o.workload]
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	b0, n0 := allocCounters()
	setup, err := timeJob(job, o.seed, true, true)
	var run simRun
	if err == nil {
		run, err = timeJob(job, o.seed, false, true)
	}
	b1, n1 := allocCounters()
	samples, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	out.check(run.Digest == plain, "traced run's outputs differ from the untraced run's")
	traced := &endToEnd{setup: []float64{setup.WallS}}
	traced.addRun(run)
	out.setProfile(samples)
	out.set("heap.alloc_mb", "MB", float64(b1-b0)/(1<<20))
	out.set("heap.objects", "count", float64(n1-n0))
	out.setDecisionStats()
	out.setOverhead(untraced, traced)
	return nil
}

// addRun adds one repetition's samples. The operation of a sim workload
// is the whole campaign: the researcher waits for all of it.
func (e *endToEnd) addRun(r simRun) {
	e.wall = append(e.wall, r.WallS)
	e.cpu = append(e.cpu, r.CPUS)
	e.ops = append(e.ops, r.WallS*1e3)
	e.peaks = append(e.peaks, r.PeakMB)
}

// measureSim times `setups` set-up runs, then repeats the full job until
// budget has passed (at least twice when budget is positive, once
// otherwise), each in a fresh child process. Every repetition must
// reproduce the first one's outputs; it returns their digest.
func measureSim(o options, out *outcome, setups int, budget time.Duration) (*endToEnd, string, error) {
	e := &endToEnd{}
	for i := 0; i < setups; i++ {
		r, err := spawnSim(o, true)
		out.check(err == nil, "set-up %d: %v", i, err)
		if err != nil {
			return nil, "", err
		}
		e.setup = append(e.setup, r.WallS)
	}
	minReps := 1
	if budget > 0 {
		minReps = 2
	}
	var first string
	deadline := time.Now().Add(budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		r, err := spawnSim(o, false)
		out.check(err == nil, "repetition %d: %v", rep, err)
		if err != nil {
			return nil, "", err
		}
		e.addRun(r)
		if rep == 0 {
			first = r.Digest
		} else {
			out.check(r.Digest == first, "repetition %d's outputs differ from the first's", rep)
		}
	}
	return e, first, nil
}

// goldenFigure is a committed byte-for-byte reference output and the
// options that reproduce it.
type goldenFigure struct {
	id, file string
}

var goldenFigures = []goldenFigure{
	{"figure2", "golden-figure2.csv"},
	{"figure8", "golden-figure8.csv"},
}

// goldenOptions are the options the committed golden CSVs were captured
// with.
var goldenOptions = experiment.FigureOptions{Runs: 2, Events: 40, Seed: 5, Parallel: 1}

// goldenProbe regenerates a golden figure and compares it byte for byte
// with the committed CSV, read where the repository keeps it.
func goldenProbe(root string, g goldenFigure) error {
	want, err := os.ReadFile(filepath.Join(root, "internal", "experiment", "testdata", g.file))
	if err != nil {
		return err
	}
	fig, err := experiment.Generate(g.id, goldenOptions)
	if err != nil {
		return err
	}
	return sameBytes([]byte(fig.CSV()), want)
}

// sameBytes reports the first differing byte of got against want.
func sameBytes(got, want []byte) error {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("byte %d is %q, want %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	return nil
}
