package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// batchAck mirrors the reply shape shared by both ingest endpoints.
type batchAck struct {
	Accepted        int    `json:"accepted"`
	Rejected        int    `json:"rejected"`
	FirstErrorIndex int    `json:"first_error_index"`
	Error           string `json:"error"`
	Decisions       uint64 `json:"decisions"`
}

func TestServeBatchLineIngest(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"tout":1000,"nodes":8}`)
	url := ts.URL + "/v1/tenants/alpha/reports/batch"

	status, body := do(t, http.MethodPost, url, []byte("0\n1\n2\n5\n"))
	if status != http.StatusOK {
		t.Fatalf("batch ingest: HTTP %d: %s", status, body)
	}
	var ack batchAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("reply %s not JSON: %v", body, err)
	}
	if ack.Accepted != 4 || ack.Rejected != 0 || ack.FirstErrorIndex != -1 || ack.Error != "" {
		t.Fatalf("clean batch ack = %+v, want 4 accepted, no error", ack)
	}

	// CRLF and blank lines are tolerated; a trailing line without a
	// newline still parses.
	status, body = do(t, http.MethodPost, url, []byte("3\r\n\n4\r\n7"))
	if status != http.StatusOK {
		t.Fatalf("crlf batch: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != 3 {
		t.Fatalf("crlf batch ack = %s, want 3 accepted", body)
	}
}

func TestServeBatchLinePartialAccept(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"tout":1000,"nodes":4}`)
	url := ts.URL + "/v1/tenants/alpha/reports/batch"

	// One unknown node mid-batch: the rest still lands, the reply says
	// where acceptance first failed.
	status, body := do(t, http.MethodPost, url, []byte("0\n99\n1\n2\n"))
	if status != http.StatusOK {
		t.Fatalf("partial batch: HTTP %d: %s", status, body)
	}
	var ack batchAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 3 || ack.Rejected != 1 || ack.FirstErrorIndex != 1 ||
		!strings.Contains(ack.Error, "unknown node") {
		t.Fatalf("partial ack = %+v, want 3 accepted, 1 rejected at index 1", ack)
	}

	// Every row bad: a plain 400.
	status, body = do(t, http.MethodPost, url, []byte("99\n98\n"))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "unknown node") {
		t.Fatalf("all-rejected batch: HTTP %d: %s, want 400 unknown node", status, body)
	}

	// Malformed input is rejected before ingest, with the byte offset.
	status, body = do(t, http.MethodPost, url, []byte("0\nnope\n"))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "byte 2") {
		t.Fatalf("malformed batch: HTTP %d: %s, want 400 at byte 2", status, body)
	}
	status, body = do(t, http.MethodPost, url, []byte("\n\n"))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "empty") {
		t.Fatalf("empty batch: HTTP %d: %s, want 400 empty", status, body)
	}
}

func TestServeJSONPartialAccept(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts, "alpha", `{"tout":1000,"nodes":4}`)

	status, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/reports",
		[]byte(`{"nodes":[0,99,1]}`))
	if status != http.StatusOK {
		t.Fatalf("partial JSON batch: HTTP %d: %s", status, body)
	}
	var ack batchAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 2 || ack.Rejected != 1 || ack.FirstErrorIndex != 1 ||
		!strings.Contains(ack.Error, "unknown node") {
		t.Fatalf("partial JSON ack = %+v, want 2 accepted, 1 rejected at index 1", ack)
	}
}
