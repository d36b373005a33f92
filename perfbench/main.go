// Command perfbench is the repository benchmark. It runs one named
// workload at one seed and prints, as the last line of standard output,
// one JSON object with the correctness verdict, the operations attempted
// and failed, and the workload's metrics by name and unit:
//
//	perfbench -workload serve-ingest -seed 3 -seconds 20 -trace 0
//	perfbench compare runs-a.txt runs-b.txt
//
// With -trace 0 it prints the end-to-end metrics, measured with no
// instrumentation; with -trace 1 it repeats a shorter untraced pass, then
// a traced pass, and prints the per-layer metrics plus the tracing
// overhead on every end-to-end metric. README.md defines every workload
// and metric; run.sh builds the binaries and is the usual entry point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // source tree the program was built from
	serveBin string // tibfit-serve binary built from root
	out      string // directory for the trace's span dump
}

// workload runs one workload and fills the outcome. An error means the
// benchmark could not run at all (no result is printed); failed checks
// are recorded in the outcome instead.
type workload func(o options, out *outcome) error

var workloads = map[string]workload{
	"paper-campaign": runPaperCampaign,
	"field-100k":     runSim,
	"serve-ingest":   runServeIngest,
	"serve-decide":   runServeDecide,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o       options
		seconds = fs.Int("seconds", 20, "measured time of one run, in seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		child   = fs.Bool("child", false, "run one repetition of a sim workload and print its timings (internal)")
		setup   = fs.Bool("setup", false, "with -child: run at set-up size")
	)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.StringVar(&o.root, "root", ".", "root of the source tree under test")
	fs.StringVar(&o.serveBin, "serve-bin", "", "tibfit-serve binary built from -root")
	fs.StringVar(&o.out, "out", "", "directory for the traced run's span dump (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child {
		if _, ok := simJobs[o.workload]; !ok {
			fmt.Fprintf(stderr, "perfbench: -child needs a sim workload, got %q\n", o.workload)
			return 2
		}
		if err := runSimChild(o, *setup); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %v)\n", o.workload, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o.seconds = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1

	out := newOutcome()
	if err := w(o, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	prov, err := collectProvenance(o, out.gomaxprocs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: provenance: %v\n", err)
		return 1
	}
	for _, note := range out.notes {
		fmt.Fprintln(stderr, "perfbench: check failed:", note)
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"provenance": prov})
	_ = enc.Encode(map[string]any{"detail": out.detail})
	_ = enc.Encode(out.result())
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, the one comparison tools read.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxNotes bounds how many failed checks are described on stderr; the
// count in the result is always complete.
const maxNotes = 20

// outcome accumulates one run: operations and checks, metrics, and the
// detail line of workload-specific figures printed before the result.
type outcome struct {
	attempted, failed int
	notes             []string
	metrics           map[string]metric
	detail            map[string]any
	gomaxprocs        map[string]int // per process: "bench", "daemon"
}

func newOutcome() *outcome {
	return &outcome{
		metrics:    map[string]metric{},
		detail:     map[string]any{},
		gomaxprocs: map[string]int{},
	}
}

// check counts one operation or verification; a false ok is a failure.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.notes) < maxNotes {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// count records n operations of which bad failed.
func (o *outcome) count(n, bad int, what string) {
	o.attempted += n
	o.failed += bad
	if bad > 0 && len(o.notes) < maxNotes {
		o.notes = append(o.notes, fmt.Sprintf("%d of %d %s failed", bad, n, what))
	}
}

// set records a metric. JSON has no NaN or infinity: an empty sample set
// prints 0, and a percentile that falls on a failed operation prints the
// largest float32, well past any latency limit.
func (o *outcome) set(name, unit string, v float64) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 0):
		v = math.Copysign(math.MaxFloat32, v)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) result() result {
	return result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
}
