package main

import (
	"strings"
	"testing"
)

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"no action", nil},
		{"unknown figure", []string{"-fig", "figure99"}},
		{"bad format", []string{"-fig", "figure10", "-format", "xml"}},
		{"bad level", []string{"-exp", "2", "-level", "7", "-events", "20", "-runs", "1"}},
		{"bad track level", []string{"-track", "-level", "7"}},
		{"track faulty above one", []string{"-track", "-faulty", "1.5", "-events", "20", "-runs", "1"}},
		{"sweep without values", []string{"-sweep", "lambda", "-exp", "2"}},
		{"sweep bad values", []string{"-sweep", "lambda", "-values", "a,b", "-exp", "2"}},
		{"sweep bad exp", []string{"-sweep", "lambda", "-values", "0.1", "-exp", "3"}},
		{"sweep unknown param", []string{"-sweep", "bogus", "-values", "0.1", "-exp", "1", "-events", "20", "-runs", "1"}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Fatalf("run(%v) succeeded, want error", tt.args)
			}
		})
	}
}

func TestRunHappyPaths(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"list", []string{"-list"}},
		{"closed-form figure", []string{"-fig", "figure10"}},
		{"closed-form csv", []string{"-fig", "figure11", "-format", "csv"}},
		{"exp1", []string{"-exp", "1", "-events", "20", "-runs", "1"}},
		{"exp2", []string{"-exp", "2", "-events", "20", "-runs", "1"}},
		{"exp2 level2 baseline", []string{"-exp", "2", "-level", "2", "-scheme", "baseline", "-events", "20", "-runs", "1"}},
		{"exp3", []string{"-exp", "3", "-events", "100", "-runs", "1"}},
		{"track", []string{"-track", "-events", "40", "-runs", "1"}},
		{"track level3", []string{"-track", "-level", "3", "-events", "40", "-runs", "1"}},
		{"sweep help", []string{"-sweep", "help"}},
		{"sweep exp1", []string{"-sweep", "lambda", "-values", "0.1,0.25", "-exp", "1", "-events", "20", "-runs", "1"}},
		{"sweep exp2 csv", []string{"-sweep", "removal", "-values", "0,0.3", "-exp", "2", "-events", "30", "-runs", "1", "-format", "csv"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err != nil {
				t.Fatalf("run(%v) = %v", tt.args, err)
			}
		})
	}
}

func TestParseValues(t *testing.T) {
	got, err := parseValues("0.1, 0.25 ,1")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.25, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseValues = %v", got)
		}
	}
	if _, err := parseValues(""); err == nil || !strings.Contains(err.Error(), "-values") {
		t.Fatalf("empty list error = %v", err)
	}
}
