package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	if err := run([]string{"-nodes", "36", "-events", "30", "-rounds", "2"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultihop(t *testing.T) {
	if err := run([]string{"-nodes", "36", "-events", "30", "-multihop"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"non-square nodes", []string{"-nodes", "37"}},
		{"zero rounds", []string{"-rounds", "0"}},
		{"bad scheme", []string{"-scheme", "magic", "-events", "10"}},
		{"missing load file", []string{"-load", "/definitely/not/here.json"}},
		{"bad flag", []string{"-nope"}},
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
// rejected resilience/chaos flag value, the same contract the -scheme
// flag carries: the config layer's own message reaches the user
// unwrapped and unrepaired.
func TestRunFlagExactMessages(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			"negative retries",
			[]string{"-nodes", "36", "-retries", "-1"},
			"network: ReportRetries must be non-negative, got -1",
		},
		{
			"retries without backoff",
			[]string{"-nodes", "36", "-retries", "2"},
			"network: ReportRetries needs a positive ReportBackoff",
		},
		{
			"NaN backoff",
			[]string{"-nodes", "36", "-retries", "2", "-backoff", "nan"},
			"network: ReportBackoff must be finite, got NaN",
		},
		{
			"negative backoff",
			[]string{"-nodes", "36", "-backoff", "-0.5"},
			"network: ReportBackoff must be non-negative, got -0.5",
		},
		{
			"negative byzheads",
			[]string{"-nodes", "36", "-byzheads", "-3"},
			"chaos: ByzHeads must be non-negative, got -3",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, os.Stdout)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", tt.args)
			}
			if err.Error() != tt.want {
				t.Fatalf("run(%v) error = %q, want %q", tt.args, err, tt.want)
			}
		})
	}
}

// TestRunByzantineQuarantine exercises the adversarial-head path end to
// end through the CLI: compromises are planned and the summary reports
// the byzantine counter line.
func TestRunByzantineQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-nodes", "36", "-events", "40", "-mode", "binary",
		"-byzheads", "2", "-chquarantine"}, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "byzantine: 2 head compromises planned, quarantine=true") {
		t.Fatalf("missing byzantine plan line:\n%s", out)
	}
	if !strings.Contains(out, "byzantine: compromised=2") {
		t.Fatalf("missing byzantine summary line:\n%s", out)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trust.json")
	if err := run([]string{"-nodes", "36", "-events", "40", "-save", path}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version"`) {
		t.Fatalf("saved file lacks version:\n%s", data)
	}
	if err := run([]string{"-nodes", "36", "-events", "20", "-load", path}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}
