package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/serve"
)

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-nope"}},
		{"bad addr", []string{"-addr", "not a url"}},
		{"relative addr", []string{"-addr", "127.0.0.1:8080"}},
		{"bad tenant", []string{"-tenant", "UPPER"}},
		{"bad scheme", []string{"-scheme", "magic"}},
		{"zero tenants", []string{"-tenants", "0"}},
		{"zero reports", []string{"-reports", "0"}},
		{"zero batch", []string{"-batch", "0"}},
		{"zero workers", []string{"-workers", "0"}},
		{"bad wire", []string{"-wire", "grpc"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, os.Stdout); err == nil {
				t.Fatalf("run(%v) succeeded, want error", tt.args)
			}
		})
	}
}

// TestRunFlagExactMessages pins the complete user-facing error for each
// rejected flag value, matching the -scheme error-path contract: the
// validation layer's message reaches the user verbatim.
func TestRunFlagExactMessages(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			"addr without scheme",
			[]string{"-addr", "127.0.0.1:8080"},
			`invalid -addr "127.0.0.1:8080": need an absolute URL like http://127.0.0.1:8080`,
		},
		{
			"tenant with bad characters",
			[]string{"-tenant", "load/0"},
			`cli: tenant name may use lowercase letters, digits, '-', '_', '.': "load/0"`,
		},
		{
			"unknown scheme",
			[]string{"-scheme", "fuzy"},
			`decision: unknown scheme "fuzy" (did you mean "fuzzy"?); registered: baseline, dynamic-trust, fuzzy, linear, majority, tibfit`,
		},
		{
			"zero tenants",
			[]string{"-tenants", "0"},
			"-tenants must be positive, got 0",
		},
		{
			"zero reports",
			[]string{"-reports", "0"},
			"-reports must be positive, got 0",
		},
		{
			"zero workers",
			[]string{"-workers", "0"},
			"-workers must be positive, got 0",
		},
		{
			"unknown wire",
			[]string{"-wire", "grpc"},
			`-wire must be "json" or "batch", got "grpc"`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, os.Stdout)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want %q", tt.args, tt.want)
			}
			if err.Error() != tt.want {
				t.Fatalf("run(%v)\n got: %s\nwant: %s", tt.args, err, tt.want)
			}
		})
	}
}

// TestRunAgainstServer drives the load generator end to end against an
// in-process serve handler: the CI smoke job's path, shrunk to unit
// size, including the snapshot roundtrip and the -out artifact.
func TestRunAgainstServer(t *testing.T) {
	srv := serve.NewServer(serve.Config{Unit: 50 * time.Microsecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	outPath := filepath.Join(t.TempDir(), "latency.json")
	args := []string{
		"-addr", ts.URL,
		"-tenants", "2",
		"-reports", "500",
		"-nodes", "8",
		"-batch", "16",
		"-tout", "20",
		"-min-decisions", "1",
		"-snapshot-roundtrip",
		"-out", outPath,
	}
	if err := run(args, os.Stdout); err != nil {
		t.Fatal(err)
	}
	artifact, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"schema": "tibfit-load/v2"`, `"request_ns"`, `"decision_ns"`,
		`"reports_per_sec"`, `"wire": "json"`,
	} {
		if !bytes.Contains(artifact, []byte(want)) {
			t.Fatalf("artifact missing %q:\n%s", want, artifact)
		}
	}
}

// TestRunDrainHonorsTimeout pins the drain deadline: with a T_out whose
// drain pause (2·T_out, here 200 s) dwarfs -timeout, the run still ends
// within a small multiple of -timeout instead of sleeping out the pause.
func TestRunDrainHonorsTimeout(t *testing.T) {
	srv := serve.NewServer(serve.Config{Unit: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	const timeout = 200 * time.Millisecond
	args := []string{
		"-addr", ts.URL,
		"-tenants", "1",
		"-reports", "20",
		"-nodes", "4",
		"-tout", "100000",
		"-timeout", timeout.String(),
		"-min-decisions", "0",
	}
	start := time.Now()
	if err := run(args, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*timeout {
		t.Fatalf("run took %v with -timeout %v, want under %v", elapsed, timeout, 10*timeout)
	}
}

// TestRunBatchWireWorkers drives the worker fleet over the line-format
// hot path against sharded tenants: the sustained-throughput harness
// configuration, shrunk to unit size.
func TestRunBatchWireWorkers(t *testing.T) {
	srv := serve.NewServer(serve.Config{Unit: 50 * time.Microsecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	outPath := filepath.Join(t.TempDir(), "latency.json")
	args := []string{
		"-addr", ts.URL,
		"-tenants", "2",
		"-reports", "500",
		"-nodes", "8",
		"-batch", "16",
		"-workers", "3",
		"-wire", "batch",
		"-tout", "20",
		"-min-decisions", "1",
		"-out", outPath,
	}
	var buf bytes.Buffer
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run(args, out); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.ReadFrom(out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("reports/sec")) {
		t.Fatalf("run output missing throughput line:\n%s", buf.Bytes())
	}
	artifact, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"schema": "tibfit-load/v2"`, `"wire": "batch"`, `"workers": 3`,
	} {
		if !bytes.Contains(artifact, []byte(want)) {
			t.Fatalf("artifact missing %q:\n%s", want, artifact)
		}
	}
}
