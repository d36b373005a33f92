// Batched line-format ingest: the zero-alloc hot path of the serving
// layer. The JSON endpoint (POST .../reports) pays an encoding/json
// decode per request; at millions of reports per second that decode is
// the bill. This endpoint takes the degenerate NDJSON a load generator
// actually produces — one decimal node ID per line, each line a valid
// JSON number — and parses it byte by byte into pooled scratch, so a
// warm request performs no per-report allocation at all. The wire
// format and the partial-accept contract are documented in
// docs/SERVING.md ("Throughput & sharding").

package serve

import (
	"io"
	"net/http"
	"strconv"
	"sync"
)

// batchScratch is the pooled per-request scratch of the line-format
// endpoint: the raw body, the decoded node IDs, and the reply bytes.
// All three retain capacity across requests via batchPool, so a warm
// endpoint stops allocating. Appends go through the receiver's fields —
// the scratch-buffer idiom the hotalloc analyzer sanctions.
type batchScratch struct {
	body  []byte
	nodes []int
	reply []byte
}

// batchPool recycles scratch across requests and handler goroutines.
var batchPool = sync.Pool{
	New: func() any {
		return &batchScratch{
			body:  make([]byte, 0, 4096),
			nodes: make([]int, 0, 1024),
			reply: make([]byte, 0, 128),
		}
	},
}

// readFrom slurps the request body into the scratch's byte buffer,
// growing it only until the pool warms to the deployment's batch size.
//
//hot:path
func (b *batchScratch) readFrom(r io.Reader) error {
	b.body = b.body[:0]
	for {
		if len(b.body) == cap(b.body) {
			b.body = append(b.body, 0)
			b.body = b.body[:len(b.body)-1]
		}
		n, err := r.Read(b.body[len(b.body):cap(b.body)])
		b.body = b.body[:len(b.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// maxNodeDigits bounds one line's digit count: 18 decimal digits always
// fit int64, and no node ID is within nine orders of magnitude of that.
const maxNodeDigits = 18

// parseNodes decodes the line format in one pass: decimal node IDs
// separated by LF (CR and blank lines tolerated), no quotes, no
// brackets. It reports the byte offset of the first malformed line, -1
// when the body is clean.
//
//hot:path
func (b *batchScratch) parseNodes() (badAt int) {
	b.nodes = b.nodes[:0]
	data := b.body
	i := 0
	for i < len(data) {
		switch data[i] {
		case '\n', '\r', ' ', '\t':
			i++
			continue
		}
		start := i
		n := 0
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			n = n*10 + int(data[i]-'0')
			i++
		}
		if i == start || i-start > maxNodeDigits {
			return start
		}
		if i < len(data) && data[i] != '\n' && data[i] != '\r' {
			return start
		}
		b.nodes = append(b.nodes, n)
	}
	return -1
}

// appendReply renders the reportReply JSON by hand into the scratch's
// reply buffer — same shape as the JSON endpoint's encoder output, with
// the field order fixed by this function instead of struct tags.
//
//hot:path
func (b *batchScratch) appendReply(r reportReply) []byte {
	b.reply = b.reply[:0]
	b.reply = append(b.reply, `{"accepted":`...)
	b.reply = strconv.AppendInt(b.reply, int64(r.Accepted), 10)
	if r.Rejected > 0 {
		b.reply = append(b.reply, `,"rejected":`...)
		b.reply = strconv.AppendInt(b.reply, int64(r.Rejected), 10)
	}
	b.reply = append(b.reply, `,"first_error_index":`...)
	b.reply = strconv.AppendInt(b.reply, int64(r.FirstErrorIndex), 10)
	if r.Error != "" {
		b.reply = append(b.reply, `,"error":`...)
		b.reply = strconv.AppendQuote(b.reply, r.Error)
	}
	b.reply = append(b.reply, `,"decisions":`...)
	b.reply = strconv.AppendUint(b.reply, r.Decisions, 10)
	b.reply = append(b.reply, '}', '\n')
	return b.reply
}

// handleReportsBatch is the line-format ingest hot path: pooled body
// read, byte-level parse, one ReportMany, preformatted reply. The
// partial-accept contract matches the JSON endpoint: bad rows are
// skipped and reported, an all-rejected batch is a 400 (409 when the
// tenant is closing).
//
//hot:path
func (s *Server) handleReportsBatch(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	if err := sc.readFrom(limitBody(w, r)); err != nil {
		writeBodyError(w, "reading report batch", err)
		return
	}
	if badAt := sc.parseNodes(); badAt >= 0 {
		//lint:allow hotalloc error path: one response per malformed batch, never per report
		writeError(w, http.StatusBadRequest, "malformed report line at byte %d", badAt)
		return
	}
	if len(sc.nodes) == 0 {
		writeError(w, http.StatusBadRequest, "report batch is empty")
		return
	}
	reply, ok := s.reportBatch(w, t, sc.nodes)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.appendReply(reply))
}
