package dioph

import (
	"math/rand"
	"testing"

	"repro/internal/multiset"
	"repro/internal/vecset"
)

// benchCandidates builds a stream of frontier-like candidate vectors with a
// realistic duplicate rate: random small non-negative vectors, each emitted
// a second time with probability ~1/2, in dimension 9 (a transition-count
// system of a mid-size protocol).
func benchCandidates() []multiset.Vec {
	rng := rand.New(rand.NewSource(3))
	const dim = 9
	var out []multiset.Vec
	for i := 0; i < 20_000; i++ {
		y := make(multiset.Vec, dim)
		for j := range y {
			y[j] = int64(rng.Intn(4))
		}
		out = append(out, y)
		if rng.Intn(2) == 0 {
			out = append(out, y.Clone())
		}
	}
	return out
}

// BenchmarkDedupVecSet measures the solver's candidate dedup as now
// implemented: raw-coordinate FNV-1a hashing into an arena-backed
// open-addressing set (internal/vecset). Compare allocs/op with the string-key
// baseline below — the per-candidate Key materialization is gone.
func BenchmarkDedupVecSet(b *testing.B) {
	cands := benchCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := vecset.New(len(cands[0]))
		fresh := 0
		for _, y := range cands {
			if seen.Insert(y) {
				fresh++
			}
		}
		if fresh == 0 {
			b.Fatal("no fresh candidates")
		}
	}
}

// BenchmarkDedupStringKey is the retained pre-PR dedup: a map[string]bool
// keyed by multiset.Vec.Key, one string allocation per candidate — the
// "before" side of the comparison.
func BenchmarkDedupStringKey(b *testing.B) {
	cands := benchCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := make(map[string]bool)
		fresh := 0
		for _, y := range cands {
			k := y.Key()
			if !seen[k] {
				seen[k] = true
				fresh++
			}
		}
		if fresh == 0 {
			b.Fatal("no fresh candidates")
		}
	}
}

// BenchmarkHilbertBasisEq runs the whole solver on a 3-equation system
// whose frontier examines tens of thousands of candidates, end to end.
func BenchmarkHilbertBasisEq(b *testing.B) {
	a := [][]int64{
		{1, -1, 2, 0, -2, 1, 0, -1, 1},
		{0, 2, -1, -1, 1, 0, -2, 1, 0},
		{-1, 0, 0, 2, 0, -1, 1, 0, -1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis, err := HilbertBasisEq(a, 9, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(basis) == 0 {
			b.Fatal("empty basis")
		}
	}
}
