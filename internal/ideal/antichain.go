package ideal

// This file implements the domination layer of the antichain core behind
// UpSet. Elements are stored in a vecset.Set (append-only arena, so views
// handed out never dangle; its hash table rejects exact duplicates in
// O(1)). A per-element signature — folded support bitmask plus positive
// ∞-norm — prunes domination scans before any coordinate is touched. The
// companion naive.go retains the pre-arena implementation verbatim for
// differential tests and benchmarks.

// sig is the domination-pruning signature of a minimal element m ∈ ℕ^d:
//
//   - support: bit (i mod 64) is set iff m(i) > 0. m ≤ v forces every
//     positive coordinate of m to be positive in v, so
//     support(m) &^ support(v) ≠ 0 refutes m ≤ v without touching the
//     arena (folding at 64 keeps the test one word for any d).
//   - norm: max over positive coordinates (‖m‖∞ on ℕ^d). m ≤ v forces
//     norm(m) ≤ norm(v), the second one-word refutation.
//   - hash: the element's raw-coordinate hash (vecset.Hash), cached so
//     Clone never rehashes.
type sig struct {
	support uint64
	norm    int64
	hash    uint64
}

// signatureOf computes the support mask and positive ∞-norm of v.
func signatureOf(v []int64) (support uint64, norm int64) {
	for i, x := range v {
		if x > 0 {
			support |= 1 << (uint(i) & 63)
			if x > norm {
				norm = x
			}
		}
	}
	return support, norm
}

// leWords reports a ≤ b componentwise for equal-length raw slices. The
// scan is unrolled 4-wide: domination checks are the inner loop of every
// Insert and Contains, and the bounds-check-free quad with a single OR'd
// early exit keeps the comparator ahead of the word-at-a-time loop
// (leWordsRef, pinned by BenchmarkLeWords) on the basis dimensions the
// fixpoints actually run at.
func leWords(a, b []int64) bool {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aq := a[i : i+4 : i+4]
		bq := b[i : i+4 : i+4]
		if aq[0] > bq[0] || aq[1] > bq[1] || aq[2] > bq[2] || aq[3] > bq[3] {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}
