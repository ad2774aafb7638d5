package stable

// This file retains the seed backward-coverability fixpoint verbatim — the
// restart-the-whole-basis pred-basis loop over the retained naive antichain
// (ideal.NaiveUpSet), re-deriving predecessors of every minimal element
// every round through a fresh MinBasis clone — as the differential-testing
// reference and the "before" side of BenchmarkStableAnalyzeNaive, the same
// role naive_test.go plays in internal/reach and reference_test.go in
// internal/sim. The differential suite proves the frontier-driven core's
// final antichain equal element for element (after canonical sorting; the
// two cores insert in different orders) on randomized protocols and the
// whole builtin catalog.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

// referenceBackwardCover is the seed fixpoint, verbatim (modulo the naive
// antichain type): every round clones the full minimal basis and re-derives
// the predecessors of every element.
func referenceBackwardCover(p *protocol.Protocol, b int, maxBasis int, stop <-chan struct{}) (*ideal.NaiveUpSet, int, error) {
	d := p.NumStates()
	u := ideal.NewNaiveUpSet(d)
	for q := 0; q < d; q++ {
		if p.Output(protocol.State(q)) != b {
			u.Add(multiset.Unit(d, q))
		}
	}
	pres := make([]multiset.Vec, p.NumTransitions())
	for t := 0; t < p.NumTransitions(); t++ {
		tr := p.Transition(t)
		pres[t] = multiset.Pair(d, int(tr.P), int(tr.Q))
	}
	iters := 0
	for {
		iters++
		grew := false
		basis := u.MinBasis()
		for k, m := range basis {
			if k&1023 == 0 && stop != nil {
				select {
				case <-stop:
					return nil, iters, ErrInterrupted
				default:
				}
			}
			for t := 0; t < p.NumTransitions(); t++ {
				delta := p.Displacement(t)
				if delta.IsZero() {
					continue
				}
				pre := m.Sub(delta).Clip().Max(pres[t])
				if u.Add(pre) {
					grew = true
				}
			}
		}
		if u.Size() > maxBasis {
			return nil, iters, fmt.Errorf("%w: %d elements", ErrBasisTooLarge, u.Size())
		}
		if !grew {
			return u, iters, nil
		}
	}
}

// referenceAnalysis is the full seed analysis: reference fixpoint plus the
// retained naive complementation.
type referenceAnalysis struct {
	unstable [2]*ideal.NaiveUpSet
	sc       [2]*ideal.DownSet
	iters    [2]int
}

func referenceAnalyze(p *protocol.Protocol, maxBasis int) (*referenceAnalysis, error) {
	if maxBasis <= 0 {
		maxBasis = 200_000
	}
	a := &referenceAnalysis{}
	for b := 0; b <= 1; b++ {
		u, iters, err := referenceBackwardCover(p, b, maxBasis, nil)
		if err != nil {
			return nil, err
		}
		a.unstable[b] = u
		a.iters[b] = iters
		a.sc[b] = ideal.NaiveComplementUp(u)
	}
	return a, nil
}

// canonicalKeys renders an antichain in the canonical sorted-key format
// used for element-for-element comparison across cores.
func canonicalKeys(basis []multiset.Vec) []string {
	keys := make([]string, len(basis))
	for i, m := range basis {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

func keysEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// idealKeys renders a DownSet decomposition canonically (cap vectors are
// int64 slices, so the multiset key format applies).
func idealKeys(ds *ideal.DownSet) []string {
	ids := ds.Ideals()
	keys := make([]string, len(ids))
	for i, id := range ids {
		caps := make(multiset.Vec, id.Dim())
		for j := range caps {
			caps[j] = id.Cap(j)
		}
		keys[i] = caps.Key()
	}
	sort.Strings(keys)
	return keys
}

// randomProtocol builds a random single-input protocol: 2–5 states with
// random outputs, a random set of non-identity transitions, completed with
// identity interactions (the generator internal/reach's differential suite
// uses).
func randomProtocol(rng *rand.Rand) *protocol.Protocol {
	k := 2 + rng.Intn(4)
	b := protocol.NewBuilder(fmt.Sprintf("random-%d", k))
	states := make([]protocol.State, k)
	for i := range states {
		states[i] = b.AddState(fmt.Sprintf("q%d", i), rng.Intn(2))
	}
	m := 1 + rng.Intn(2*k)
	for i := 0; i < m; i++ {
		b.AddTransition(
			states[rng.Intn(k)], states[rng.Intn(k)],
			states[rng.Intn(k)], states[rng.Intn(k)],
		)
	}
	b.AddInput("x", states[rng.Intn(k)])
	return b.CompleteWithIdentity().MustBuild()
}

// compareCores runs the reference analysis and the frontier core on one
// protocol and fails unless every final antichain is exactly equal to the
// reference and every ideal decomposition matches.
func compareCores(t *testing.T, label string, p *protocol.Protocol) {
	t.Helper()
	ref, err := referenceAnalyze(p, 0)
	if err != nil {
		t.Fatalf("%s: referenceAnalyze: %v", label, err)
	}
	seq, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("%s: Analyze: %v", label, err)
	}
	for b := 0; b <= 1; b++ {
		wantU := canonicalKeys(ref.unstable[b].MinBasis())
		gotU := canonicalKeys(seq.Unstable(b).MinBasis())
		if !keysEqual(gotU, wantU) {
			t.Fatalf("%s: U_%d differs: %d elements vs reference %d\n got %s\nwant %s",
				label, b, len(gotU), len(wantU), seq.Unstable(b), ref.unstable[b])
		}
		if !keysEqual(idealKeys(seq.StableSet(b)), idealKeys(ref.sc[b])) {
			t.Fatalf("%s: SC_%d decomposition differs:\n got %s\nwant %s",
				label, b, seq.StableSet(b), ref.sc[b])
		}
		if seq.Iterations(b) != ref.iters[b] {
			t.Fatalf("%s: iterations(%d) = %d, reference %d", label, b, seq.Iterations(b), ref.iters[b])
		}
		if seq.FrontierProcessed(b) < seq.Unstable(b).Size() {
			t.Fatalf("%s: frontier counter for U_%d is %d, below final basis size %d",
				label, b, seq.FrontierProcessed(b), seq.Unstable(b).Size())
		}
	}
}

// TestDifferentialFrontierVsReference is the central differential test of
// the backward-coverability rewrite: on ≥ 50 randomized protocols, the
// frontier-driven core must produce final antichains exactly equal,
// element for element, to the retained seed fixpoint.
func TestDifferentialFrontierVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		p := randomProtocol(rng)
		compareCores(t, fmt.Sprintf("trial %d (%s)", trial, p.Name()), p)
	}
}

// TestDifferentialBuiltinsVsReference runs the same core comparison over
// every builtin catalog protocol.
func TestDifferentialBuiltinsVsReference(t *testing.T) {
	for name, e := range protocols.Catalog() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			compareCores(t, name, e.Protocol)
		})
	}
}
