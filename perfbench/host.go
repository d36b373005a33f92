package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// peakRSSMB reads a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in %s", procPath(pid, "status"))
}

// processCPU reads a process's utime+stime from /proc/<pid>/stat.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// space-separated, with utime and stime the 14th and 15th overall.
	end := bytes.LastIndexByte(b, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed %s", procPath(pid, "stat"))
	}
	fields := strings.Fields(string(b[end+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short %s", procPath(pid, "stat"))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", procPath(pid, "stat"), err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// selfCPU is this process's user+system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// provenance identifies what was measured and where. Results from
// different host fingerprints are not comparable (see compare.go).
type provenance struct {
	Commit          string         `json:"commit"`
	SourceSHA256    string         `json:"source_sha256"`
	CPUModel        string         `json:"cpu_model"`
	NProc           int            `json:"nproc"`
	GoVersion       string         `json:"go_version"`
	GOMAXPROCS      map[string]int `json:"gomaxprocs"`
	HostFingerprint string         `json:"host_fingerprint"`
	Workload        string         `json:"workload"`
	Seed            int64          `json:"seed"`
	Seconds         float64        `json:"seconds"`
	Trace           bool           `json:"trace"`
}

func collectProvenance(o options, gomaxprocs map[string]int) (provenance, error) {
	src, err := sourceDigest(o.root)
	if err != nil {
		return provenance{}, err
	}
	p := provenance{
		Commit:       gitCommit(o.root),
		SourceSHA256: src,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   gomaxprocs,
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds.Seconds(),
		Trace:        o.trace,
	}
	p.HostFingerprint = hostFingerprint(p.CPUModel, p.NProc, p.GoVersion)
	return p, nil
}

// hostFingerprint digests what makes two hosts' timings comparable.
func hostFingerprint(cpu string, nproc int, goVersion string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%s|%s/%s", cpu, nproc, goVersion, runtime.GOOS, runtime.GOARCH)))
	return hex.EncodeToString(sum[:8])
}

// gitCommit names the commit when root is a git work tree, else
// "unknown"; sourceDigest identifies the tree either way.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping dot-directories (the build cache among them).
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("walking %s: %w", root, err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
