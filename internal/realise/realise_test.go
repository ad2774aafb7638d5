package realise

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/dioph"
	"repro/internal/ideal"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

func TestSystemShape(t *testing.T) {
	e := protocols.FlockOfBirds(3)
	p := e.Protocol
	a, cols, err := System(p)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	if len(a) != p.NumStates()-1 {
		t.Fatalf("rows = %d, want |Q|-1 = %d", len(a), p.NumStates()-1)
	}
	for _, tIdx := range cols {
		if p.Displacement(tIdx).IsZero() {
			t.Fatal("identity transition in columns")
		}
	}
	for _, row := range a {
		if len(row) != len(cols) {
			t.Fatal("ragged system")
		}
	}
}

func TestSystemRejectsLeadersAndMultiInput(t *testing.T) {
	if _, _, err := System(protocols.LeaderFlock(2).Protocol); !errors.Is(err, ErrNotLeaderless) {
		t.Fatalf("want ErrNotLeaderless, got %v", err)
	}
	if _, _, err := System(protocols.Majority().Protocol); !errors.Is(err, ErrMultiInput) {
		t.Fatalf("want ErrMultiInput, got %v", err)
	}
}

func TestBasisElementsAreRealisable(t *testing.T) {
	for name, e := range map[string]protocols.Entry{
		"flock(3)":    protocols.FlockOfBirds(3),
		"succinct(2)": protocols.Succinct(2),
		"binary(5)":   protocols.BinaryThreshold(5),
		"parity":      protocols.Parity(),
	} {
		e := e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := e.Protocol
			basis, err := Basis(p, dioph.Options{})
			if err != nil {
				t.Fatalf("Basis: %v", err)
			}
			if len(basis) == 0 {
				t.Fatal("empty basis: at least one realisable multiset exists for these protocols")
			}
			a, _, err := System(p)
			if err != nil {
				t.Fatal(err)
			}
			bound := dioph.SlackPottierBound(a)
			for _, pi := range basis {
				ok, err := IsPotentiallyRealisable(p, pi)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("basis element %v not potentially realisable", pi)
				}
				// Pottier bound on ‖π‖₁ = |π| (Theorem 5.6 via slacks).
				if big.NewInt(pi.Size()).Cmp(bound) > 0 {
					t.Fatalf("basis element size %d exceeds Pottier bound %s", pi.Size(), bound)
				}
				// Witness is a valid configuration.
				i, c := Witness(p, pi)
				if i < 0 || !c.IsNatural() {
					t.Fatalf("bad witness i=%d c=%v", i, c)
				}
				// C = IC(i) + Δπ.
				want := p.InitialConfigN(i).Add(pi.Displacement(p))
				if !c.Equal(want) {
					t.Fatalf("witness C = %v, want %v", c, want)
				}
			}
		})
	}
}

func TestSuccinctMergeChainRealisable(t *testing.T) {
	// For P'_2 the full merge cascade 2·(1,1↦0,2) + (2,2↦0,4) is
	// potentially realisable with witness input 4.
	e := protocols.Succinct(2)
	p := e.Protocol
	one, _ := p.StateByName("2^0")
	two, _ := p.StateByName("2^1")
	four, _ := p.StateByName("2^2")
	zero, _ := p.StateByName("0")
	find := func(a, b, c, d protocol.State) int {
		for i := 0; i < p.NumTransitions(); i++ {
			tr := p.Transition(i)
			want := protocol.Transition{P: a, Q: b, P2: c, Q2: d}
			if tr == normalize(want) {
				return i
			}
		}
		t.Fatalf("transition not found")
		return -1
	}
	m1 := find(one, one, zero, two)
	m2 := find(two, two, zero, four)
	pi := TransitionMultiset{m1: 2, m2: 1}
	ok, err := IsPotentiallyRealisable(p, pi)
	if err != nil || !ok {
		t.Fatalf("merge cascade should be realisable: %v %v", ok, err)
	}
	i, c := Witness(p, pi)
	if i != 4 {
		t.Fatalf("witness input = %d, want 4", i)
	}
	if c[zero] != 3 || c[four] != 1 || c[one] != 0 || c[two] != 0 {
		t.Fatalf("witness C = %s", p.FormatConfig(c))
	}
	// Incomplete cascade (one merge of 2s without enough 1-merges) is not.
	bad := TransitionMultiset{m2: 1}
	ok, err = IsPotentiallyRealisable(p, bad)
	if err != nil || ok {
		t.Fatalf("2,2 merge alone consumes 2-agents that were never produced: %v %v", ok, err)
	}
}

func TestTransitionMultisetOps(t *testing.T) {
	pi := TransitionMultiset{1: 2, 3: 1}
	rho := TransitionMultiset{1: 1, 4: 5}
	sum := pi.Add(rho)
	if sum.Size() != 9 || sum[1] != 3 || sum[4] != 5 {
		t.Fatalf("Add = %v", sum)
	}
	if pi.Size() != 3 {
		t.Fatalf("Size = %d", pi.Size())
	}
	var empty TransitionMultiset
	if empty.Size() != 0 {
		t.Fatal("empty size")
	}
}

func normalize(tr protocol.Transition) protocol.Transition {
	if tr.P > tr.Q {
		tr.P, tr.Q = tr.Q, tr.P
	}
	if tr.P2 > tr.Q2 {
		tr.P2, tr.Q2 = tr.Q2, tr.P2
	}
	return tr
}

// TestBasisCanonicalOrder: Basis returns its elements in ascending
// lexicographic order of their Definition 4 column vectors — the order
// certify-leaderless consumes and stored basis artifacts preserve.
func TestBasisCanonicalOrder(t *testing.T) {
	p := protocols.FlockOfBirds(4).Protocol
	basis, err := Basis(p, dioph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, cols, err := System(p)
	if err != nil {
		t.Fatal(err)
	}
	vec := func(pi TransitionMultiset) []int64 {
		v := make([]int64, len(cols))
		for j, tr := range cols {
			v[j] = pi[tr]
		}
		return v
	}
	if len(basis) < 2 {
		t.Fatalf("basis has %d elements, need at least 2 to check order", len(basis))
	}
	for i := 1; i < len(basis); i++ {
		if !ideal.Less(vec(basis[i-1]), vec(basis[i])) {
			t.Fatalf("elements %d and %d out of order: %v then %v", i-1, i, basis[i-1], basis[i])
		}
	}
}
