package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain compares two sets of runs, each a file holding the output
// of one or more runs of the same workload. It refuses to compare runs
// made on different hosts (different host fingerprints), then prints
// each metric's median on both sides and the relative change.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare RUNS_A RUNS_B")
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	if err := sameHost(append(a, b...)); err != nil {
		fmt.Fprintln(stderr, "perfbench compare: refusing:", err)
		return 1
	}
	ma, mb := metricSamples(a), metricSamples(b)
	names := make([]string, 0, len(ma))
	for n := range ma {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-28s %14s %14s %9s\n", "metric", "median A", "median B", "change")
	for _, n := range names {
		x, y := median(ma[n]), median(mb[n])
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %+8.2f%%\n", n, x, y, 100*(y-x)/x)
	}
	return 0
}

// savedRun is one run's provenance and result, as printed by perfbench.
type savedRun struct {
	prov provenance
	res  result
}

// readRuns reads the runs in a file of perfbench output: each run is a
// provenance line followed, two lines later, by its result line.
func readRuns(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	var cur *savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Provenance *provenance       `json:"provenance"`
			Metrics    map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Provenance != nil:
			cur = &savedRun{prov: *line.Provenance}
		case line.Metrics != nil && cur != nil:
			if err := json.Unmarshal(sc.Bytes(), &cur.res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, *cur)
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// sameHost checks every run shares one host fingerprint and workload.
func sameHost(runs []savedRun) error {
	first := runs[0].prov
	for _, r := range runs[1:] {
		if r.prov.HostFingerprint != first.HostFingerprint {
			return fmt.Errorf("host %s (%s, %d CPUs, %s) differs from host %s (%s, %d CPUs, %s)",
				r.prov.HostFingerprint, r.prov.CPUModel, r.prov.NProc, r.prov.GoVersion,
				first.HostFingerprint, first.CPUModel, first.NProc, first.GoVersion)
		}
		if r.prov.Workload != first.Workload || r.prov.Trace != first.Trace {
			return fmt.Errorf("runs of %s (trace %v) mixed with %s (trace %v)", r.prov.Workload, r.prov.Trace, first.Workload, first.Trace)
		}
	}
	return nil
}

func metricSamples(runs []savedRun) map[string][]float64 {
	m := map[string][]float64{}
	for _, r := range runs {
		for n, v := range r.res.Metrics {
			m[n] = append(m[n], v.Value)
		}
	}
	return m
}
