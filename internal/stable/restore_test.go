package stable

import (
	"testing"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

// analyzeAndRestore runs a fresh Analyze on p and rebuilds it through
// RestoreDerived from exactly what the artifact store persists: the U_b
// minimal bases, the iteration and frontier counts, and Derived().
func analyzeAndRestore(t *testing.T, p *protocol.Protocol) (fresh, restored *Analysis) {
	t.Helper()
	fresh, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var basis [2][]multiset.Vec
	var iters, front [2]int
	for b := 0; b <= 1; b++ {
		basis[b] = fresh.Unstable(b).MinBasis()
		iters[b] = fresh.Iterations(b)
		front[b] = fresh.FrontierProcessed(b)
	}
	restored, err = RestoreDerived(p, basis, iters, front, fresh.Derived())
	if err != nil {
		t.Fatalf("RestoreDerived: %v", err)
	}
	return fresh, restored
}

// requireSameSCBasis fails t unless both analyses report the same SC basis,
// element by element, and the same measured norm.
func requireSameSCBasis(t *testing.T, fresh, restored *Analysis) {
	t.Helper()
	fsc, rsc := fresh.SCBasis(), restored.SCBasis()
	if len(fsc) != len(rsc) {
		t.Fatalf("SC basis sizes differ: %d vs %d", len(fsc), len(rsc))
	}
	for i := range fsc {
		if !fsc[i].B.Equal(rsc[i].B) || !fsc[i].S.Equal(rsc[i].S) {
			t.Fatalf("SC basis element %d differs", i)
		}
	}
	if fresh.MeasuredNorm() != restored.MeasuredNorm() {
		t.Fatalf("MeasuredNorm differs: %d vs %d", fresh.MeasuredNorm(), restored.MeasuredNorm())
	}
}

// TestRestoreEqualsAnalyze pins the durability contract of the disk
// artifact store: an Analysis rebuilt from its MinBasis form must be
// bit-identical to a fresh Analyze — same U_b element order, same
// counters, same SC basis — over the whole builtin catalog.
func TestRestoreEqualsAnalyze(t *testing.T) {
	for name, e := range protocols.Catalog() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fresh, restored := analyzeAndRestore(t, e.Protocol)
			for b := 0; b <= 1; b++ {
				if !restored.Unstable(b).Equal(fresh.Unstable(b)) {
					t.Fatalf("U_%d differs after restore", b)
				}
				fb, rb := fresh.Unstable(b).MinBasis(), restored.Unstable(b).MinBasis()
				if len(fb) != len(rb) {
					t.Fatalf("U_%d basis sizes differ: %d vs %d", b, len(fb), len(rb))
				}
				for i := range fb {
					if !fb[i].Equal(rb[i]) {
						t.Fatalf("U_%d basis element %d differs: %v vs %v", b, i, fb[i], rb[i])
					}
				}
				if restored.Iterations(b) != fresh.Iterations(b) ||
					restored.FrontierProcessed(b) != fresh.FrontierProcessed(b) {
					t.Fatalf("U_%d counters differ", b)
				}
			}
			requireSameSCBasis(t, fresh, restored)
		})
	}
}

// TestRestoreDerivedEqualsAnalyze pins the v2 artifact contract: an
// Analysis rebuilt from its bases PLUS the persisted derived
// decompositions — complementation skipped entirely — is bit-identical to
// a fresh Analyze, including the SC decomposition iteration order.
func TestRestoreDerivedEqualsAnalyze(t *testing.T) {
	for name, e := range protocols.Catalog() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fresh, restored := analyzeAndRestore(t, e.Protocol)
			for b := 0; b <= 1; b++ {
				if !restored.Unstable(b).Equal(fresh.Unstable(b)) {
					t.Fatalf("U_%d differs after derived restore", b)
				}
				fi, ri := fresh.StableSet(b).Ideals(), restored.StableSet(b).Ideals()
				if len(fi) != len(ri) {
					t.Fatalf("SC_%d decomposition sizes differ: %d vs %d", b, len(fi), len(ri))
				}
				for i := range fi {
					if !fi[i].Subsumes(ri[i]) || !ri[i].Subsumes(fi[i]) {
						t.Fatalf("SC_%d ideal %d differs: %v vs %v", b, i, fi[i], ri[i])
					}
				}
			}
			requireSameSCBasis(t, fresh, restored)
		})
	}
}

// majorityBases returns a fresh Majority analysis with its U_b minimal
// bases, the input the rejection tests corrupt.
func majorityBases(t *testing.T) (*protocol.Protocol, *Analysis, [2][]multiset.Vec) {
	t.Helper()
	p := protocols.Majority().Protocol
	fresh, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var basis [2][]multiset.Vec
	for b := 0; b <= 1; b++ {
		basis[b] = fresh.Unstable(b).MinBasis()
	}
	return p, fresh, basis
}

// TestRestoreRejectsBadInput: a zero iteration count, a wrong-dimension
// basis element and a basis out of canonical order are each rejected
// rather than restored.
func TestRestoreRejectsBadInput(t *testing.T) {
	p, fresh, basis := majorityBases(t)
	der := fresh.Derived()
	if _, err := RestoreDerived(p, basis, [2]int{0, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted zero iteration count")
	}
	bad := basis
	bad[0] = append([]multiset.Vec{multiset.New(p.NumStates() + 1)}, basis[0]...)
	if _, err := RestoreDerived(p, bad, [2]int{1, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted wrong-dimension element")
	}
	if len(basis[0]) < 2 {
		t.Fatalf("U_0 basis has %d elements, need 2 to reorder", len(basis[0]))
	}
	bad = basis
	bad[0] = append([]multiset.Vec{basis[0][len(basis[0])-1]}, basis[0][:len(basis[0])-1]...)
	if _, err := RestoreDerived(p, bad, [2]int{1, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted a basis out of canonical order")
	}
}

func TestRestoreDerivedRejectsBadDims(t *testing.T) {
	p, fresh, basis := majorityBases(t)
	der := fresh.Derived()
	der.SCAll = append(der.SCAll, ideal.FullIdeal(p.NumStates()+2))
	if _, err := RestoreDerived(p, basis, [2]int{1, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted wrong-dimension ideal")
	}
}
