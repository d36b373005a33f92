// Package sparse provides CSR-style sparse vectors — parallel slices of
// sorted integer IDs and values — modeled on the entry vectors of
// go-eigentrust's pkg/sparse. A lookup first probes the dense offset
// id - ids[0], so on the contiguous IDs the simulator hands out it is one
// indexed load; a gapped ID set falls back to a binary search capped at
// that offset (Search).
//
// The trust tables (core.Table, the station's CH-trust ledger) use these
// in place of dense maps so that memory is O(live entries), iteration is
// a cache-friendly in-order walk with no sort at the call site, and a
// window-close feedback pass touches each cache line exactly once. ID
// order is the only iteration order, so replacing a map can never leak
// map-range nondeterminism into campaign output.
package sparse

import "sort"

// Vector is a sparse vector of V keyed by non-negative integer ID.
// Entries are stored in ascending ID order. The zero value is empty and
// ready to use.
type Vector[V any] struct {
	ids  []int
	vals []V
}

// Len returns the number of live entries.
func (v *Vector[V]) Len() int { return len(v.ids) }

// Search returns the position of id in ids, which must hold strictly
// ascending integers, and whether it is there; when absent the position
// is where id would be inserted (sort.SearchInts's answer). Strict
// integer ascent means ids[g] >= ids[0]+g, so the dense offset
// g = id - ids[0] either holds id itself — one load on a contiguous ID
// set — or caps the bisection from above. An id below ids[0] makes g
// negative, and the unsigned compare sends it to the full bisection.
//
// The bisection is sort.SearchInts inlined, so the comparison is a
// machine int compare with no func value; the whole body stays within
// the compiler's inlining budget.
//
//hot:path
func Search(ids []int, id int) (i int, ok bool) {
	n := len(ids)
	if n > 0 {
		if g := id - ids[0]; uint(g) < uint(n) {
			if ids[g] == id {
				return g, true
			}
			n = g
		}
	}
	for i < n {
		if mid := int(uint(i+n) >> 1); ids[mid] < id {
			i = mid + 1
		} else {
			n = mid
		}
	}
	return i, i < len(ids) && ids[i] == id
}

// Find returns a pointer to the value stored for id, or nil when absent.
// The pointer is invalidated by the next mutating call.
//
//hot:path
func (v *Vector[V]) Find(id int) *V {
	if i, ok := Search(v.ids, id); ok {
		return &v.vals[i]
	}
	return nil
}

// Get returns the value stored for id by value, with a presence flag —
// the read-only lookup concurrent readers use (Find's pointer would
// alias the vector's storage; a copied value cannot). The vector itself
// must still be immutable or externally synchronized while Get runs.
//
//hot:path
func (v *Vector[V]) Get(id int) (V, bool) {
	if i, ok := Search(v.ids, id); ok {
		return v.vals[i], true
	}
	var zero V
	return zero, false
}

// Upsert returns a pointer to the value stored for id, inserting a zero
// value first when absent. Appending in ascending ID order hits the O(1)
// tail fast path; out-of-order inserts shift the tail. The pointer is
// invalidated by the next mutating call.
//
//hot:path
func (v *Vector[V]) Upsert(id int) *V {
	if n := len(v.ids); n == 0 || v.ids[n-1] < id {
		var zero V
		v.ids = append(v.ids, id)
		v.vals = append(v.vals, zero)
		return &v.vals[len(v.vals)-1]
	}
	i, ok := Search(v.ids, id)
	if ok {
		return &v.vals[i]
	}
	var zero V
	v.ids = append(v.ids, 0)
	v.vals = append(v.vals, zero)
	copy(v.ids[i+1:], v.ids[i:])
	copy(v.vals[i+1:], v.vals[i:])
	v.ids[i] = id
	v.vals[i] = zero
	return &v.vals[i]
}

// IDs returns the live IDs in ascending order. The slice is a view into
// the vector's storage: callers must not modify it, and it is invalidated
// by the next mutating call.
func (v *Vector[V]) IDs() []int { return v.ids }

// At returns the i-th entry in ID order.
//
//hot:path
func (v *Vector[V]) At(i int) (int, *V) { return v.ids[i], &v.vals[i] }

// Scan calls fn for each entry in ascending ID order until fn returns
// false. This is the one-pass cache-line walk window close uses.
//
//hot:path
func (v *Vector[V]) Scan(fn func(id int, val *V) bool) {
	for i := range v.ids {
		if !fn(v.ids[i], &v.vals[i]) {
			return
		}
	}
}

// Reset empties the vector, keeping capacity for reuse.
func (v *Vector[V]) Reset() {
	v.ids = v.ids[:0]
	v.vals = v.vals[:0]
}

// Clone returns a deep copy of the vector's structure. Values are copied
// by assignment; pointer-typed V still aliases the pointees.
func (v *Vector[V]) Clone() Vector[V] {
	var c Vector[V]
	c.ids = append(c.ids, v.ids...)
	c.vals = append(c.vals, v.vals...)
	return c
}

// MergeSorted overwrites (or inserts) the given entries, which must be
// sorted by ascending ID with no duplicates, in one linear merge pass —
// O(existing + new) instead of O(new × existing) repeated Upserts. It
// panics when the input violates the ordering contract, because a
// silently mis-merged trust ledger would be far harder to debug.
func (v *Vector[V]) MergeSorted(ids []int, vals []V) {
	if len(ids) != len(vals) {
		panic("sparse: MergeSorted length mismatch")
	}
	if len(ids) == 0 {
		return
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic("sparse: MergeSorted input not strictly ascending")
		}
	}
	// Fast path: everything lands after the current tail.
	if n := len(v.ids); n == 0 || v.ids[n-1] < ids[0] {
		v.ids = append(v.ids, ids...)
		v.vals = append(v.vals, vals...)
		return
	}
	mergedIDs := make([]int, 0, len(v.ids)+len(ids))
	mergedVals := make([]V, 0, len(v.vals)+len(vals))
	i, j := 0, 0
	for i < len(v.ids) && j < len(ids) {
		switch {
		case v.ids[i] < ids[j]:
			mergedIDs = append(mergedIDs, v.ids[i])
			mergedVals = append(mergedVals, v.vals[i])
			i++
		case v.ids[i] > ids[j]:
			mergedIDs = append(mergedIDs, ids[j])
			mergedVals = append(mergedVals, vals[j])
			j++
		default: // overwrite
			mergedIDs = append(mergedIDs, ids[j])
			mergedVals = append(mergedVals, vals[j])
			i++
			j++
		}
	}
	mergedIDs = append(mergedIDs, v.ids[i:]...)
	mergedVals = append(mergedVals, v.vals[i:]...)
	mergedIDs = append(mergedIDs, ids[j:]...)
	mergedVals = append(mergedVals, vals[j:]...)
	v.ids, v.vals = mergedIDs, mergedVals
}

// SortIDs sorts ids ascending in place — the helper callers use to
// canonicalize map keys before a MergeSorted or an ordered rebuild.
func SortIDs(ids []int) { sort.Ints(ids) }
