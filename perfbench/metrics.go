package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndDefs are the metrics every untraced run prints, on every
// workload. README.md gives each workload's definition of the job and of
// its operation.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},      // median set-up time
	{"wall_s", "s"},       // median wall time of one repetition of the job
	{"cpu_s", "s"},        // median CPU time of the working process per job
	{"peak_rss_mb", "MB"}, // median VmHWM of the working processes
	{"op_p50_ms", "ms"},   // median latency of the workload's operation
}

// profileLayers are the layers CPU-profile samples are attributed to,
// each printed as <layer>.self_s. runtime.gc_s is printed beside them.
var profileLayers = []string{
	"sim", "radio", "aggregator", "cluster", "decision", "core",
	"geo", "leach", "network", "node", "sparse", "rng", "experiment",
	"engine", "serve", "http", "json", "runtime", "loadgen", "other",
}

// perLayerDefs are the metrics every traced run prints, on every
// workload; a layer the workload does not exercise reads 0.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_s", "s"},
		metricDef{"profile.sampled_s", "s"},
		metricDef{"profile.named_share", "ratio"},
		metricDef{"heap.alloc_mb", "MB"},
		metricDef{"heap.objects", "count"},
		metricDef{"decision.arbitrate_us", "us"},
		metricDef{"decision.judge_us", "us"},
		metricDef{"decision.weight_ns", "ns"},
		metricDef{"decision.calls", "count"},
		metricDef{"serve.ingest_line_us", "us"},
		metricDef{"serve.ingest_json_us", "us"},
		metricDef{"serve.poll_us", "us"},
		metricDef{"serve.snapshot_us", "us"},
		metricDef{"serve.allocs_per_batch", "count"},
		metricDef{"http.overhead_us", "us"},
		metricDef{"engine.ingest_ns_per_report", "ns"},
		metricDef{"engine.allocs_per_report", "count"},
		metricDef{"engine.expiry_us", "us"},
		metricDef{"engine.since_us", "us"},
		metricDef{"wallclock.late_p50_us", "us"},
		metricDef{"wallclock.late_p99_us", "us"},
		metricDef{"engine.seal_us", "us"},
		metricDef{"engine.restore_us", "us"},
		metricDef{"engine.snapshot_bytes", "bytes"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.sent", "count"},
	)
	for _, d := range endToEndDefs {
		defs = append(defs, metricDef{"overhead." + d.name, d.unit})
	}
	return defs
}

// endToEnd holds the raw samples behind the end-to-end metrics.
type endToEnd struct {
	setup []float64 // seconds, one per set-up
	wall  []float64 // seconds, one per job repetition
	cpu   []float64 // CPU seconds, one per job repetition
	peaks []float64 // peak RSS in MiB, one per working process
	ops   []float64 // milliseconds, one per operation; +Inf for a failed one
}

// values reduces the samples to the end-to-end metrics, by name.
func (e *endToEnd) values() map[string]float64 {
	return map[string]float64{
		"setup_s":     median(e.setup),
		"wall_s":      median(e.wall),
		"cpu_s":       median(e.cpu),
		"peak_rss_mb": median(e.peaks),
		"op_p50_ms":   quantile(e.ops, 0.5),
	}
}

// setEndToEnd prints the end-to-end metrics and their sample counts.
func (o *outcome) setEndToEnd(e *endToEnd) {
	v := e.values()
	for _, d := range endToEndDefs {
		x := v[d.name]
		o.check(x > 0 && !math.IsInf(x, 0), "%s has no valid value (%v)", d.name, x)
		o.set(d.name, d.unit, x)
	}
	o.detail["samples"] = map[string]int{
		"setup": len(e.setup), "wall": len(e.wall), "ops": len(e.ops),
	}
	o.detail["op_quantiles_ms"] = map[string]float64{
		"p90": quantile(e.ops, 0.9), "p95": quantile(e.ops, 0.95),
		"p99": quantile(e.ops, 0.99), "p99.9": quantile(e.ops, 0.999),
	}
	if len(e.wall) <= 64 {
		o.detail["wall_s_each"] = e.wall
	}
}

// setOverhead prints overhead.<metric> = traced − untraced for every
// end-to-end metric, and both sides in the detail line.
func (o *outcome) setOverhead(untraced, traced *endToEnd) {
	u, t := untraced.values(), traced.values()
	for _, d := range endToEndDefs {
		o.set("overhead."+d.name, d.unit, t[d.name]-u[d.name])
	}
	o.detail["untraced"] = u
	o.detail["traced"] = t
}

// zeroPerLayer presets every per-layer metric to 0, so layers a workload
// never reaches still print.
func (o *outcome) zeroPerLayer() {
	for _, d := range perLayerDefs() {
		o.set(d.name, d.unit, 0)
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 / NumPy default). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sinceDue is an open-loop operation's latency: from when it was due to
// be sent, not when it was sent, so a stall that delays later sends
// counts against every request it delays.
func sinceDue(due, done time.Time) time.Duration { return done.Sub(due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
