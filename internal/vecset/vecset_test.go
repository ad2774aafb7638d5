package vecset

import (
	"math/rand"
	"testing"

	"repro/internal/multiset"
)

// FuzzSet drives the set against a map[string]int32 oracle keyed by the
// serialization format (multiset.Vec.Key): every Find must agree with the
// oracle, Insert must report absence exactly when the oracle does, and
// after all inserts every member must still be found under its original
// id.
func FuzzSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint8(4))
	f.Add([]byte{255, 255, 0, 0, 255, 255}, uint8(2))
	f.Add([]byte{7}, uint8(1))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw uint8) {
		dim := int(dimRaw%5) + 1
		s := New(dim)
		twin := New(dim) // fed through Insert only
		oracle := make(map[string]int32)
		for off := 0; off+dim <= len(data); off += dim {
			c := make([]int64, dim)
			for i := 0; i < dim; i++ {
				c[i] = int64(int8(data[off+i]))
			}
			key := multiset.Vec(c).Key()
			h := Hash(c)
			id, ok := s.Find(c, h)
			wantID, wantOK := oracle[key]
			if ok != wantOK || (ok && id != wantID) {
				t.Fatalf("Find(%v) = %d,%t, oracle %d,%t", c, id, ok, wantID, wantOK)
			}
			if fresh := twin.Insert(c); fresh == wantOK {
				t.Fatalf("Insert(%v) = %t, oracle present %t", c, fresh, wantOK)
			}
			if !ok {
				oracle[key] = s.Add(c, h)
			}
		}
		if s.Len() != len(oracle) || twin.Len() != len(oracle) {
			t.Fatalf("Len = %d (Insert twin %d), oracle %d", s.Len(), twin.Len(), len(oracle))
		}
		for key, wantID := range oracle {
			c, err := multiset.ParseKey(key, dim)
			if err != nil {
				t.Fatalf("ParseKey: %v", err)
			}
			id, ok := s.Find(c, Hash(c))
			if !ok || id != wantID {
				t.Fatalf("final Find(%v) = %d,%t, oracle %d", c, id, ok, wantID)
			}
		}
	})
}

// TestSetRandomized exercises table growth and probe chains well past the
// fuzz corpus sizes: 50k random low-entropy vectors (lots of hash traffic)
// against the map oracle.
func TestSetRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 6
	s := New(dim)
	oracle := make(map[string]int32)
	c := make([]int64, dim)
	for op := 0; op < 50_000; op++ {
		for i := range c {
			c[i] = int64(rng.Intn(8)) // small counts: realistic configurations
		}
		key := multiset.Vec(c).Key()
		h := Hash(c)
		id, ok := s.Find(c, h)
		wantID, wantOK := oracle[key]
		if ok != wantOK || (ok && id != wantID) {
			t.Fatalf("op %d: Find(%v) = %d,%t, oracle %d,%t", op, c, id, ok, wantID, wantOK)
		}
		if !ok {
			oracle[key] = s.Add(c, h)
		}
	}
	if len(oracle) == 0 {
		t.Fatal("no insertions happened")
	}
	// Negative lookups: vectors outside the sampled range must miss.
	for i := range c {
		c[i] = 100 + int64(i)
	}
	if _, ok := s.Find(c, Hash(c)); ok {
		t.Fatalf("Find(%v) hit, want miss", c)
	}
}

// TestViewsAndIDsStableAcrossGrowth pins the contract the cores build on:
// ids are dense in insertion order, an At view taken before the arena and
// table grow still reads the same coordinates afterwards, and its capacity
// is capped, so appending through it cannot overwrite the next member.
func TestViewsAndIDsStableAcrossGrowth(t *testing.T) {
	const dim, n = 3, 5000
	s := New(dim)
	var views [][]int64
	for i := 0; i < n; i++ {
		v := []int64{int64(i), int64(i % 7), -int64(i)}
		if id := s.Add(v, Hash(v)); id != int32(i) {
			t.Fatalf("Add #%d returned id %d", i, id)
		}
		if i%500 == 0 {
			views = append(views, s.At(int32(i)))
		}
	}
	for k, view := range views {
		i := k * 500
		want := []int64{int64(i), int64(i % 7), -int64(i)}
		if !Equal(view, want) || !Equal(s.At(int32(i)), want) {
			t.Fatalf("member %d: early view %v, At %v, want %v", i, view, s.At(int32(i)), want)
		}
		if cap(view) != dim {
			t.Fatalf("member %d: view capacity %d, want %d", i, cap(view), dim)
		}
		if id, ok := s.Find(want, Hash(want)); !ok || id != int32(i) {
			t.Fatalf("Find(%v) = %d,%t after growth, want %d", want, id, ok, i)
		}
	}
	_ = append(s.At(0), 99)
	if got := s.At(1); got[0] != 1 {
		t.Fatalf("append through a view overwrote member 1: %v", got)
	}
}

// TestHashDistribution sanity-checks that distinct small vectors do not
// collide in practice (the table handles collisions, but the quality of
// Hash is what keeps probes short).
func TestHashDistribution(t *testing.T) {
	seen := make(map[uint64][]int64)
	c := []int64{0, 0, 0}
	for a := int64(0); a < 16; a++ {
		for b := int64(0); b < 16; b++ {
			for d := int64(0); d < 16; d++ {
				c[0], c[1], c[2] = a, b, d
				h := Hash(c)
				if prev, ok := seen[h]; ok {
					t.Fatalf("collision: %v and %v both hash to %#x", prev, c, h)
				}
				seen[h] = append([]int64(nil), c...)
			}
		}
	}
}

// eqWordsRef is the word-at-a-time equality scan, the oracle of the
// unrolled comparator.
func eqWordsRef(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// TestEqualMatchesRef pins the unrolled 4-wide equality scan to the
// reference on every length around the unroll boundaries, including
// single-coordinate flips and the length-mismatch early exit.
func TestEqualMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randWords := func(n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(rng.Intn(4))
		}
		return w
	}
	for n := 0; n <= 19; n++ {
		for trial := 0; trial < 400; trial++ {
			a, b := randWords(n), randWords(n)
			if trial%2 == 0 {
				copy(b, a)
				if n > 0 && trial%4 == 0 {
					b[rng.Intn(n)] ^= 1 // single-coordinate flip
				}
			}
			if got, want := Equal(a, b), eqWordsRef(a, b); got != want {
				t.Fatalf("Equal(%v, %v) = %t, ref %t", a, b, got, want)
			}
			if got, want := Equal(a, b[:max(0, n-1)]), eqWordsRef(a, b[:max(0, n-1)]); got != want {
				t.Fatalf("Equal length mismatch = %t, ref %t", got, want)
			}
		}
	}
}

// FuzzEqual cross-checks the unrolled comparator against the reference on
// arbitrary byte-derived coordinate pairs.
func FuzzEqual(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 2
		a := make([]int64, n)
		b := make([]int64, n)
		for i := 0; i < n; i++ {
			a[i] = int64(data[i] % 4)
			b[i] = int64(data[n+i] % 4)
		}
		if got, want := Equal(a, b), eqWordsRef(a, b); got != want {
			t.Fatalf("Equal(%v, %v) = %t, ref %t", a, b, got, want)
		}
	})
}
