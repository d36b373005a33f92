package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// The traced run attributes CPU time to layers from a runtime/pprof CPU
// profile of the process doing the work. The profile is a gzipped
// protocol buffer (github.com/google/pprof/proto/profile.proto); the few
// fields attribution needs are decoded here by hand, since the module
// takes no dependencies.

// profSample is one decoded profile sample: its stack as function names,
// leaf first, the CPU time it stands for, and its goroutine labels.
type profSample struct {
	frames []string
	nanos  int64
	labels map[string]string
}

// cpuProfile is a running CPU profile of this process.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() ([]profSample, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// modulePrefix is the import-path prefix of the program under test.
const modulePrefix = "github.com/tibfit/tibfit/"

// namedLayers are the internal packages reported as layers of their own;
// any other package of the module is attributed to "other".
var namedLayers = map[string]bool{}

func init() {
	for _, l := range profileLayers {
		namedLayers[l] = true
	}
}

// gcFrames mark a sample as garbage-collector work wherever they sit in
// its stack: the background mark workers, mutator assists, sweeping and
// scavenging, and the profiler's own GC pseudo-frame.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime._GC",
}

// netPackages make up the stdlib HTTP stack the "http" layer names.
var netPackages = map[string]bool{
	"net/http": true, "net": true, "net/textproto": true, "net/url": true,
	"internal/poll": true, "syscall": true, "mime": true, "net/netip": true,
	"vendor/golang.org/x/net/http/httpguts": true,
}

// funcPackage returns the import path of the package a pprof function
// name belongs to: everything up to the first dot after the last slash.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameLayer maps one frame to its layer. Library code with no layer of
// its own (math, sort, sync, the benchmark's instrumentation, ...) maps
// to "", and the sample is attributed to the nearest caller that has one.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix+"internal/"):
		name := strings.TrimPrefix(pkg, modulePrefix+"internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if namedLayers[name] {
			return name
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case netPackages[pkg] || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	case pkg == "encoding/json":
		return "json"
	case pkg == "main" || (!strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") && pkg != "runtime/pprof"):
		return ""
	default:
		return "other"
	}
}

// sampleLayer attributes one sample: load-generator goroutines by label,
// GC work by any frame in the stack, everything else by its leaf-most
// frame that belongs to a layer. The generator only speaks HTTP, so a
// labelled stack that reaches into the program is the program's work on
// a goroutine that inherited the label (a timer callback, say).
func sampleLayer(s profSample) string {
	if s.labels["role"] == "loadgen" && !reachesProgram(s.frames) {
		return "loadgen"
	}
	for _, f := range s.frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range s.frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

func reachesProgram(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, modulePrefix+"internal/") {
			return true
		}
	}
	return false
}

// setProfile prints <layer>.self_s for every layer, runtime.gc_s, the
// total sampled CPU, and the share of it the named layers and runtime
// account for.
func (o *outcome) setProfile(samples []profSample) {
	by := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		d := time.Duration(s.nanos)
		by[sampleLayer(s)] += d
		total += d
	}
	for _, l := range profileLayers {
		o.set(l+".self_s", "s", by[l].Seconds())
	}
	o.set("runtime.gc_s", "s", by["gc"].Seconds())
	o.set("profile.sampled_s", "s", total.Seconds())
	if total > 0 {
		o.set("profile.named_share", "ratio", float64(total-by["other"]-by["loadgen"])/float64(total))
	}
	o.detail["profile_samples"] = len(samples)
}

// parseProfile decodes the samples of a gzipped pprof profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcNames = map[uint64]int64{}    // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{nanos: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.frames = append(ps.frames, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = map[string]string{}
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protocol buffer")

// walkFields calls fn for each field of a protocol-buffer message: the
// field number and wire type, with the value of a varint field in v and
// the bytes of a length-delimited one in b.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
