package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the daemon's connection limits and shows
// the header limit bites: a client that sends a request line and then
// nothing more is disconnected once ReadHeaderTimeout (cut to 100 ms
// here) passes, instead of holding the connection open.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != 60*time.Second ||
		srv.WriteTimeout != 60*time.Second || srv.IdleTimeout != 120*time.Second {
		t.Fatalf("timeouts: header %v, read %v, write %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled request line", time.Since(start))
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-nope"}},
		{"bad listen", []string{"-listen", "nohost"}},
		{"bad tenant", []string{"-tenant", "UPPER"}},
		{"bad scheme", []string{"-scheme", "magic"}},
		{"zero tout", []string{"-tout", "0"}},
		{"zero nodes", []string{"-nodes", "0"}},
		{"missing snapshot", []string{"-snapshot", "/definitely/not/here.tibs"}},
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
// rejected flag value, the same contract the -scheme flag carries
// elsewhere: the validation layer's own message reaches the user
// unwrapped and unrepaired.
func TestRunFlagExactMessages(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "corrupt.tibs")
	if err := os.WriteFile(corrupt, []byte("not a sealed snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			"listen without port",
			[]string{"-listen", "nohost"},
			"invalid -listen address: address nohost: missing port in address",
		},
		{
			"tenant with bad characters",
			[]string{"-tenant", "team/alpha"},
			`cli: tenant name may use lowercase letters, digits, '-', '_', '.': "team/alpha"`,
		},
		{
			"tenant starting with separator",
			[]string{"-tenant", "-alpha"},
			`cli: tenant name must start with a letter or digit: "-alpha"`,
		},
		{
			"unknown scheme",
			[]string{"-scheme", "fuzy"},
			`decision: unknown scheme "fuzy" (did you mean "fuzzy"?); registered: baseline, dynamic-trust, fuzzy, linear, majority, tibfit`,
		},
		{
			"negative tout",
			[]string{"-tout", "-3"},
			"-tout must be positive, got -3",
		},
		{
			"corrupt snapshot",
			[]string{"-snapshot", corrupt},
			"restoring -snapshot " + corrupt +
				": engine: verifying snapshot: core: snapshot corrupt: 21 bytes is shorter than any valid snapshot",
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
