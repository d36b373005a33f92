package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/experiment"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.99, 3.97},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
	// A failed operation (+Inf) sorts last and must surface in the tail.
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.5); got != 2 {
		t.Errorf("p50 with a failure = %v, want 2", got)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(5 * time.Millisecond) // the generator stalled
	done := sent.Add(time.Millisecond)
	if got := sinceDue(due, done); got != 6*time.Millisecond {
		t.Errorf("latency = %v, want 6ms (stall included)", got)
	}
}

func TestResultRendersFailuresAndEmptySamples(t *testing.T) {
	o := newOutcome()
	o.set("a", "ms", math.Inf(1))
	o.set("b", "ms", math.NaN())
	if _, err := json.Marshal(o.result()); err != nil {
		t.Fatalf("result does not encode: %v", err)
	}
	if o.metrics["a"].Value != math.MaxFloat32 || o.metrics["b"].Value != 0 {
		t.Errorf("got %v", o.metrics)
	}
	if o.result().Correct {
		t.Error("a run with no operations must not read correct")
	}
	o.check(true, "")
	o.check(false, "broken %d", 1)
	r := o.result()
	if r.Correct || r.Attempted != 2 || r.Failed != 1 || len(o.notes) != 1 {
		t.Errorf("result %+v notes %v", r, o.notes)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/tibfit/tibfit/internal/geo.(*Grid).Near":      "geo",
		"github.com/tibfit/tibfit/internal/engine.(*Instance).TI": "engine",
		"github.com/tibfit/tibfit/internal/chaos.Run":             "other",
		"github.com/elsewhere/lib.Func":                           "other",
		"runtime.mallocgc":                                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                 "runtime",
		"net/http.(*conn).serve":                                  "http",
		"encoding/json.(*decodeState).object":                     "json",
		"math.Exp":                                                "",
		"sort.Ints":                                               "",
		"main.(*ingestSession).post":                              "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     profSample
		layer string
	}{
		{"library leaf goes to its caller", profSample{frames: []string{"math.Exp", "github.com/tibfit/tibfit/internal/core.(*Table).Judge"}}, "core"},
		{"unknown frame", profSample{frames: []string{"github.com/elsewhere/lib.Func"}}, "other"},
		{"library only", profSample{frames: []string{"sort.Ints", "main.main"}}, "other"},
		{"gc anywhere in the stack", profSample{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}}, "gc"},
		{"generator", profSample{frames: []string{"net/http.(*persistConn).readLoop"}, labels: map[string]string{"role": "loadgen"}}, "loadgen"},
		{"program work under an inherited label", profSample{frames: []string{"github.com/tibfit/tibfit/internal/aggregator.(*Binary).closeWindow"}, labels: map[string]string{"role": "loadgen"}}, "aggregator"},
	} {
		if got := sampleLayer(tc.s); got != tc.layer {
			t.Errorf("%s: sampleLayer = %q, want %q", tc.name, got, tc.layer)
		}
	}
}

func TestParseProfileOfThisProcess(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("role", "loadgen"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	labelled := 0
	for _, s := range samples {
		total += s.nanos
		if len(s.frames) == 0 {
			t.Errorf("sample without frames: %+v", s)
		}
		if s.labels["role"] == "loadgen" {
			labelled++
		}
	}
	if len(samples) == 0 || total <= 0 || labelled == 0 {
		t.Errorf("%d samples, %d ns, %d labelled", len(samples), total, labelled)
	}
}

var sink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs()...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("bad metric %q (unit %q)", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("bad workload name %q", name)
		}
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the code in step.
func TestBenchmarkManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no manifest: %v", err)
	}
	var m struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("manifest workloads %v, code %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: manifest %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEndDefs)
	same("per_layer", m.PerLayer, perLayerDefs())
}

func TestGoldenProbe(t *testing.T) {
	g := goldenFigures[0]
	if err := goldenProbe("..", g); err != nil {
		t.Fatalf("golden probe fails on the committed output: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "internal", "experiment", "testdata", g.file))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := experiment.Generate(g.id, goldenOptions)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(fig.CSV())
	for _, at := range []int{0, len(want) / 2, len(want) - 1} {
		mutated := append([]byte(nil), want...)
		mutated[at] ^= 1
		if err := sameBytes(got, mutated); err == nil {
			t.Errorf("a one-byte mutation at %d passed the probe", at)
		}
	}
	if err := sameBytes(got, want[:len(want)-1]); err == nil {
		t.Error("a truncated golden passed the probe")
	}
}

func TestBurstsDeduplicate(t *testing.T) {
	g := newBurstGen(7)
	for i := 0; i < 200; i++ {
		b := g.next(i % decideTenants)
		set := slices.Clone(b.nodes)
		sort.Ints(set)
		set = slices.Compact(set)
		if !slices.Equal(set, b.want) {
			t.Fatalf("burst %d: sent %v, expected reporters %v", i, b.nodes, b.want)
		}
		for _, n := range b.want {
			if n >= decideMembers-decideQuiet {
				t.Fatalf("burst %d: quiet member %d reported", i, n)
			}
		}
	}
}

func TestReportersMatch(t *testing.T) {
	isolated := func(n int) bool { return n == 3 }
	for _, tc := range []struct {
		got, want []int
		ok        bool
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, true},
		{[]int{1, 2}, []int{1, 2, 3}, true},  // 3 is isolated: its report was dropped
		{[]int{1, 3}, []int{1, 2, 3}, false}, // 2 was dropped but is not isolated
		{[]int{1, 2, 4}, []int{1, 2}, false}, // a reporter no one sent
		{[]int{}, []int{3}, true},
	} {
		if got := reportersMatch(tc.got, tc.want, isolated); got != tc.ok {
			t.Errorf("reportersMatch(%v, %v) = %v, want %v", tc.got, tc.want, got, tc.ok)
		}
	}
}

func TestSamplerThins(t *testing.T) {
	var s sampler
	for i := 0; i < 4*samplerCap; i++ {
		if s.due() {
			s.record(time.Now())
		}
	}
	if s.count() != 4*samplerCap || len(s.xs) > samplerCap || s.stride < 2 {
		t.Errorf("calls %d, kept %d, stride %d", s.count(), len(s.xs), s.stride)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, host string, v float64) string {
		lines := []any{
			map[string]any{"provenance": provenance{HostFingerprint: host, Workload: "w"}},
			map[string]any{"detail": map[string]any{}},
			result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {Value: v, Unit: "s"}}},
		}
		var sb strings.Builder
		for _, l := range lines {
			b, _ := json.Marshal(l)
			sb.Write(b)
			sb.WriteByte('\n')
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a", "h1", 1), write("b", "h1", 2), write("c", "h2", 1)
	var out, errs strings.Builder
	if code := compareMain([]string{a, b}, &out, &errs); code != 0 || !strings.Contains(out.String(), "+100.00%") {
		t.Errorf("same host: exit %d, output %q %q", code, out.String(), errs.String())
	}
	if code := compareMain([]string{a, c}, &out, &errs); code != 1 || !strings.Contains(errs.String(), "refusing") {
		t.Errorf("different hosts: exit %d, stderr %q", code, errs.String())
	}
}
