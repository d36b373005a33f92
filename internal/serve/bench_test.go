package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// discardResponseWriter is the handler-direct sink: headers land in a
// reusable map, the body is counted and dropped.
type discardResponseWriter struct {
	h      http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(status int)      { w.status = status }

// benchHandlerDirect creates one tenant of n members (windows that never
// close) and drives one pre-built request straight into the mux, with no
// socket and no client, rewinding the shared body reader each op. What
// remains is the handler's own cost: routing, decode, ingest, reply.
func benchHandlerDirect(b *testing.B, nodes int, path, contentType string, body []byte) {
	srv := NewServer(Config{})
	defer srv.Close()
	if err := srv.CreateTenant("bench", TenantConfig{Tout: 1e9, Nodes: nodes}); err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "http://bench/v1/tenants/bench/"+path, rd)
	req.Header.Set("Content-Type", contentType)
	w := &discardResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		w.status = 0
		handler.ServeHTTP(w, req)
		if w.status != 0 && w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkHTTPReport sends a 64-report JSON batch handler-direct: mux
// routing, JSON decode, instance ingest, JSON reply. The delta over
// engine.BenchmarkInstanceIngest is the encode and routing tax on one
// batch.
func BenchmarkHTTPReport(b *testing.B) {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	body, err := json.Marshal(map[string][]int{"nodes": ids})
	if err != nil {
		b.Fatal(err)
	}
	benchHandlerDirect(b, 64, "reports", "application/json", body)
}

// BenchmarkHTTPBatch256 sends a 256-report line-format batch through the
// zero-alloc endpoint, handler-direct. Divide ns/op by 256 for the
// amortized per-report cost.
func BenchmarkHTTPBatch256(b *testing.B) {
	var body []byte
	for id := 0; id < 256; id++ {
		body = strconv.AppendInt(body, int64(id), 10)
		body = append(body, '\n')
	}
	benchHandlerDirect(b, 256, "reports/batch", "text/plain", body)
}
