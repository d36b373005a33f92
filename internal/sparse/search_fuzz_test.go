package sparse

import (
	"math"
	"sort"
	"testing"
)

// fuzzIDs builds a strictly ascending ID set from the fuzz inputs: it
// starts at start, and each byte of gaps adds one ID gap+1 past the
// previous one, so an all-zero gaps slice is a dense run. Construction
// stops before the next ID would overflow.
func fuzzIDs(start int64, gaps []byte) []int {
	if len(gaps) == 0 {
		return nil
	}
	ids := []int{int(start)}
	for _, g := range gaps[1:] {
		prev := ids[len(ids)-1]
		if prev > math.MaxInt-int(g)-1 {
			break
		}
		ids = append(ids, prev+int(g)+1)
	}
	return ids
}

// FuzzVectorSearch pins Search, the dense-offset probe with its capped
// bisection, to sort.SearchInts on strictly ascending ID sets (dense,
// gapped, empty, starting anywhere), for probes below, inside and above
// the range: every member, its neighbours and one free probe. A vector
// built over the same IDs must find exactly the members.
func FuzzVectorSearch(f *testing.F) {
	f.Add(int64(0), make([]byte, 36), int64(17))
	f.Add(int64(7), make([]byte, 20), int64(3))
	f.Add(int64(0), []byte{0, 2, 2, 2, 2, 2, 2, 2}, int64(9))
	f.Add(int64(1000), []byte{0, 0, 5, 0, 0, 255, 1}, int64(1003))
	f.Add(int64(5), []byte{}, int64(5))
	f.Add(int64(-40), []byte{0, 0, 0, 9, 0}, int64(math.MinInt64))
	f.Add(int64(math.MaxInt64-3), make([]byte, 8), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, start int64, gaps []byte, probe int64) {
		ids := fuzzIDs(start, gaps)
		check := func(id int) {
			i, ok := Search(ids, id)
			want := sort.SearchInts(ids, id)
			wantOK := want < len(ids) && ids[want] == id
			if i != want || ok != wantOK {
				t.Fatalf("Search(%v, %d) = %d, %v; sort.SearchInts gives %d, %v", ids, id, i, ok, want, wantOK)
			}
		}
		check(int(probe))
		var v Vector[int]
		for _, id := range ids {
			*v.Upsert(id) = id
		}
		for _, id := range ids {
			check(id)
			if id > math.MinInt {
				check(id - 1)
			}
			if id < math.MaxInt {
				check(id + 1)
			}
			if got := v.Find(id); got == nil || *got != id {
				t.Fatalf("Find(%d) = %v over %v", id, got, ids)
			}
		}
		if _, ok := Search(ids, int(probe)); ok != (v.Find(int(probe)) != nil) {
			t.Fatalf("Find(%d) disagrees with Search over %v", probe, ids)
		}
	})
}
