package stable

import (
	"fmt"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
)

// canonicalOrder reports whether the basis is strictly ascending in the
// canonical (lexicographic) element order — the order every basis this
// package emits is in, and the precondition for the bulk restore.
// Equal-length check rides along: a dimension mismatch is caught by the
// restore itself.
func canonicalOrder(basis []multiset.Vec) bool {
	for i := 1; i < len(basis); i++ {
		if len(basis[i-1]) != len(basis[i]) || !ideal.Less(basis[i-1], basis[i]) {
			return false
		}
	}
	return true
}

// Derived is the derived-structure payload of an Analysis: the irredundant
// ideal decompositions of SC_0, SC_1 and SC_0 ∪ SC_1, in the order
// ComplementUp and Union produced them. Persisting it alongside the U_b
// bases lets RestoreDerived skip recomputing the complements — on
// logarithmic-state threshold families the complement dominates the
// restore, making a durable-store hit nearly as expensive as the fixpoint
// it is supposed to skip.
type Derived struct {
	SC    [2][]ideal.Ideal
	SCAll []ideal.Ideal
}

// Derived returns the analysis's derived decompositions for persisting.
func (a *Analysis) Derived() Derived {
	return Derived{
		SC:    [2][]ideal.Ideal{a.sc[0].Ideals(), a.sc[1].Ideals()},
		SCAll: a.scAll.Ideals(),
	}
}

// RestoreDerived rebuilds an Analysis from its durable form — the minimal
// bases of U_0 and U_1 (as returned by Unstable(b).MinBasis()) and the
// recorded iteration and frontier counts — plus the persisted derived
// decompositions, skipping the complementation work Analyze pays. Each
// basis must be in canonical order, as every basis this package emits is:
// the U_b antichains are bulk-restored in that order (ideal.RestoreUpSet),
// and the SC sets verbatim (ideal.RestoreDownSet), which preserves both the
// canonical maximal-ideal sets and the exact iteration order the computing
// run produced — every accessor returns values bit-identical to a fresh
// Analyze. The caller vouches the derived data was produced by Derived()
// on an equal analysis; order and dimension mismatches are rejected,
// semantic corruption is not detectable here (the engine's content
// addressing is what rules it out).
func RestoreDerived(p *protocol.Protocol, basis [2][]multiset.Vec, iterations, frontier [2]int, der Derived) (*Analysis, error) {
	d := p.NumStates()
	a := &Analysis{p: p}
	for b := 0; b <= 1; b++ {
		if iterations[b] <= 0 {
			return nil, fmt.Errorf("stable: restore U_%d: non-positive iteration count %d", b, iterations[b])
		}
		if !canonicalOrder(basis[b]) {
			return nil, fmt.Errorf("stable: restore U_%d: basis not in canonical order", b)
		}
		u, err := ideal.RestoreUpSet(d, basis[b])
		if err != nil {
			return nil, fmt.Errorf("stable: restore U_%d: %w", b, err)
		}
		a.unstable[b] = u
		a.iterations[b] = iterations[b]
		a.frontier[b] = frontier[b]
		sc, err := ideal.RestoreDownSet(d, der.SC[b])
		if err != nil {
			return nil, fmt.Errorf("stable: restore SC_%d: %w", b, err)
		}
		a.sc[b] = sc
	}
	scAll, err := ideal.RestoreDownSet(d, der.SCAll)
	if err != nil {
		return nil, fmt.Errorf("stable: restore SC union: %w", err)
	}
	a.scAll = scAll
	a.scAllBasis = basisOf(a.scAll)
	return a, nil
}
