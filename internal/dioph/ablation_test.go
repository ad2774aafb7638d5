package dioph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/multiset"
)

// TestAblationAgreesWithCD: the no-criterion baseline and the CD solver
// must compute identical bases on small random systems.
func TestAblationAgreesWithCD(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, v := randomSystem(rr)
		cd, err1 := HilbertBasisEq(a, v, Options{})
		naive, err2 := HilbertBasisEqNoCriterion(a, v, Options{})
		if err1 != nil || err2 != nil {
			// Budget blowups can legitimately differ; skip those seeds.
			return true
		}
		if len(cd) != len(naive) {
			return false
		}
		for _, m := range cd {
			if !containsVec(naive, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAblationKnownSystem(t *testing.T) {
	got, err := HilbertBasisEqNoCriterion([][]int64{{1, 1, -2}}, 3, Options{})
	if err != nil {
		t.Fatalf("ablation: %v", err)
	}
	assertSameVecSet(t, got, []multiset.Vec{{2, 0, 1}, {0, 2, 1}, {1, 1, 1}})
}

// BenchmarkCDvsNoCriterion quantifies the value of the Contejean–Devie
// expansion criterion (an ablation of the solver).
func BenchmarkCDvsNoCriterion(b *testing.B) {
	a := [][]int64{{2, -3, 1}, {1, 1, -2}}
	b.Run("contejean-devie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HilbertBasisEq(a, 3, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-criterion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HilbertBasisEqNoCriterion(a, 3, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// HilbertBasisEqNoCriterion computes the same minimal-solution basis as
// HilbertBasisEq but *without* the Contejean–Devie expansion criterion
// ⟨A·y, A·e_j⟩ < 0: every frontier vector is expanded in every coordinate
// (subject only to domination pruning). It exists as the ablation baseline
// for the solver benchmarks — the criterion is what makes the search
// practical — and as an independent oracle for correctness tests.
//
// Completeness of the frontier search requires a breadth-first order plus
// an explicit bound on ‖y‖₁: a frontier level is abandoned only when no
// vector at that level can still lead to a new minimal solution, which
// without the geometric criterion we approximate by the Pottier bound on
// basis norms. The budget guards against the (exponentially larger)
// explored space.
func HilbertBasisEqNoCriterion(a [][]int64, v int, opts Options) ([]multiset.Vec, error) {
	if err := validate(a, v); err != nil {
		return nil, err
	}
	budget := opts.MaxCandidates
	if budget <= 0 {
		budget = 2_000_000
	}
	bound := PottierBound(a)
	maxNorm := int64(1) << 30
	if bound.IsInt64() {
		maxNorm = bound.Int64()
	}

	var minimal []multiset.Vec
	frontier := make([]multiset.Vec, 0, v)
	seen := make(map[string]bool)
	for j := 0; j < v; j++ {
		y := multiset.Unit(v, j)
		frontier = append(frontier, y)
		seen[y.Key()] = true
	}
	examined := 0
	for len(frontier) > 0 {
		var next []multiset.Vec
		for _, y := range frontier {
			examined++
			if examined > budget {
				return nil, fmt.Errorf("%w: %d candidates (no-criterion ablation)", ErrSearchTooLarge, examined)
			}
			if multiset.DominatesAny(y, minimal) {
				continue
			}
			if IsSolutionEq(a, y) {
				minimal = append(minimal, y)
				continue
			}
			if y.Norm1() >= maxNorm {
				continue
			}
			for j := 0; j < v; j++ {
				y2 := y.Clone()
				y2[j]++
				k := y2.Key()
				if !seen[k] {
					seen[k] = true
					next = append(next, y2)
				}
			}
		}
		frontier = next
	}
	return multiset.Minimal(minimal), nil
}
