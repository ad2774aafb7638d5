package ideal

import (
	"math/rand"
	"testing"
)

// leWordsRef is the word-at-a-time comparator — the before side of
// BenchmarkLeWords and the oracle of the unrolled scan's equivalence tests.
func leWordsRef(a, b []int64) bool {
	for i, x := range a {
		if x > b[i] {
			return false
		}
	}
	return true
}

// randWords draws a coordinate slice with small values, biased toward ties
// so the domination scan exercises its late-exit paths.
func randWords(rng *rand.Rand, n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(rng.Intn(4))
	}
	return w
}

// TestLeWordsMatchesRef pins the unrolled 4-wide domination scan to the
// word-at-a-time reference on every length around the unroll boundaries,
// including pairs built to differ only in the final word of a quad.
func TestLeWordsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 19; n++ {
		for trial := 0; trial < 400; trial++ {
			a, b := randWords(rng, n), randWords(rng, n)
			if trial%3 == 0 {
				copy(b, a) // force the all-equal slow path
				if n > 0 && trial%6 == 0 {
					b[rng.Intn(n)]++ // strict domination at one coordinate
				}
			}
			if got, want := leWords(a, b), leWordsRef(a, b); got != want {
				t.Fatalf("leWords(%v, %v) = %t, ref %t", a, b, got, want)
			}
		}
	}
}

// FuzzWordScans cross-checks the unrolled domination scan against its
// reference on arbitrary byte-derived coordinate pairs (the equality scan's
// counterpart is vecset's FuzzEqual).
func FuzzWordScans(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 2
		a := make([]int64, n)
		b := make([]int64, n)
		for i := 0; i < n; i++ {
			a[i] = int64(data[i] % 16)
			b[i] = int64(data[n+i] % 16)
		}
		if got, want := leWords(a, b), leWordsRef(a, b); got != want {
			t.Fatalf("leWords(%v, %v) = %t, ref %t", a, b, got, want)
		}
	})
}

// benchWordPairs builds pairs where a ≤ b holds, so the scan runs to
// completion — the worst case and the common case inside a fixpoint, where
// most Contains probes walk deep into the element before deciding.
func benchWordPairs(n, count int) [][2][]int64 {
	rng := rand.New(rand.NewSource(42))
	pairs := make([][2][]int64, count)
	for i := range pairs {
		a := randWords(rng, n)
		b := make([]int64, n)
		for j := range b {
			b[j] = a[j] + int64(rng.Intn(2))
		}
		pairs[i] = [2][]int64{a, b}
	}
	return pairs
}

// BenchmarkLeWords pins the unrolled comparator against the reference on
// the dimensions the stable/realise fixpoints actually run at (flock ~η
// states, binary thresholds ~2·log η states). Run both sides with
// -bench 'LeWords' to confirm the unroll still pays before touching it.
func BenchmarkLeWords(b *testing.B) {
	for _, n := range []int{6, 12, 16, 34} {
		pairs := benchWordPairs(n, 64)
		b.Run(sizeName("unrolled", n), func(b *testing.B) {
			sink := false
			for i := 0; i < b.N; i++ {
				p := pairs[i&63]
				sink = leWords(p[0], p[1])
			}
			_ = sink
		})
		b.Run(sizeName("ref", n), func(b *testing.B) {
			sink := false
			for i := 0; i < b.N; i++ {
				p := pairs[i&63]
				sink = leWordsRef(p[0], p[1])
			}
			_ = sink
		})
	}
}

func sizeName(kind string, n int) string {
	return kind + "/dim=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
