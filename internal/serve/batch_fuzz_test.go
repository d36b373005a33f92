package serve

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseLinesRef is the line wire written the obvious way, as the
// reference the byte-level parser must agree with: a CR ends a line like
// an LF does, each line's leading blanks are skipped, a blank line is
// skipped, and anything else must be at most maxNodeDigits decimal
// digits, read with strconv.Atoi. It returns the IDs accepted before the
// first bad line and that line's first non-blank byte offset (-1 when
// every line is good).
func parseLinesRef(body string) (nodes []int, badAt int) {
	off := 0
	for _, line := range strings.Split(strings.ReplaceAll(body, "\r", "\n"), "\n") {
		tok := strings.TrimLeft(line, " \t")
		at := off + len(line) - len(tok)
		off += len(line) + 1
		if tok == "" {
			continue
		}
		// Atoi also takes a sign; the wire does not.
		if tok[0] == '+' || tok[0] == '-' || len(tok) > maxNodeDigits {
			return nodes, at
		}
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nodes, at
		}
		nodes = append(nodes, n)
	}
	return nodes, -1
}

// FuzzBatchParse checks batchScratch.parseNodes against parseLinesRef on
// arbitrary bodies: the same accepted IDs and the same first bad byte.
func FuzzBatchParse(f *testing.F) {
	for _, seed := range []string{
		"0\n1\n2\n5\n", "3\r\n\n4\r\n7", " \t12\n", "12 \n", "1\t2", "+1\n", "-1\n",
		"999999999999999999\n", "1234567890123456789\n", "", "\n\r\n", "9x\n", "007\n1_0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := &batchScratch{body: body}
		badAt := sc.parseNodes()
		wantNodes, wantBad := parseLinesRef(string(body))
		if badAt != wantBad || !slices.Equal(sc.nodes, wantNodes) {
			t.Fatalf("parseNodes(%q) = %v, bad at %d; reference %v, bad at %d",
				body, sc.nodes, badAt, wantNodes, wantBad)
		}
	})
}
