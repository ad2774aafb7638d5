package sweep

import (
	"testing"

	"repro/internal/engine"
)

// TestFamilyChains pins the scheduling unit: family cells form one chain in
// grid order, non-family cells stay singletons, chain order follows first
// appearance.
func TestFamilyChains(t *testing.T) {
	mk := func(idx int, fam string) Cell {
		return Cell{Index: idx, Family: fam}
	}
	cells := []Cell{mk(0, "a:{N}"), mk(1, ""), mk(2, "b:{N}"), mk(3, "a:{N}"), mk(4, "")}
	chains := familyChains(cells)
	if len(chains) != 4 {
		t.Fatalf("chains = %d, want 4", len(chains))
	}
	idx := func(ch []Cell) []int {
		out := make([]int, len(ch))
		for i, c := range ch {
			out[i] = c.Index
		}
		return out
	}
	want := [][]int{{0, 3}, {1}, {2}, {4}}
	for i := range want {
		got := idx(chains[i])
		if len(got) != len(want[i]) {
			t.Fatalf("chain %d = %v, want %v", i, got, want[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("chain %d = %v, want %v", i, got, want[i])
			}
		}
	}
}

// TestExpandStampsFamily: expansion marks parametric-template cells with
// their family template, and leaves non-parametric cells unstamped.
func TestExpandStampsFamily(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "flock:{N}"}, {Spec: "flock:4"}},
		Params:    []ParamRange{{From: 3, To: 4}},
		Kinds:     []engine.Kind{engine.KindStable},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	stamped, plain := 0, 0
	for _, c := range cells {
		switch c.Family {
		case "flock:{N}":
			stamped++
			if c.Param == nil {
				t.Errorf("cell %d: family member without a param", c.Index)
			}
		case "":
			plain++
		default:
			t.Errorf("cell %d: unexpected family %q", c.Index, c.Family)
		}
	}
	if stamped == 0 || plain == 0 {
		t.Fatalf("stamped %d, plain %d — want both nonzero", stamped, plain)
	}
}
