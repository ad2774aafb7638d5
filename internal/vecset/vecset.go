// Package vecset is the repository's one deduplicating set of vectors in
// ℕ^d (more generally ℤ^d). Each exact core keeps its vectors in one:
// the reachability BFS numbers configurations by their id here, the
// backward-coverability antichain rejects exact duplicates through it, and
// the Hilbert-basis search dedups candidates with it.
//
// Members live back to back in one append-only []int64 arena, so member
// ids are dense, stable, and assigned in insertion order. An
// open-addressing table with linear probing stores id+1 per slot (0 is
// empty) plus the member's cached hash, so probe misses are rejected
// without touching the arena and growth never rehashes. The table doubles
// from 64 slots at a 3/4 load factor. Vectors are hashed by their raw
// int64 coordinates, so the hot paths never materialize a string key
// (multiset.Vec.Key stays the serialization format only).
package vecset

// Set is an append-only set of vectors of one fixed dimension.
type Set struct {
	dim    int
	n      int
	arena  []int64  // member id i at arena[i*dim : (i+1)*dim]
	slots  []int32  // member id + 1; 0 = empty
	hashes []uint64 // parallel to slots
}

// New returns an empty set of dim-dimensional vectors.
func New(dim int) *Set { return &Set{dim: dim} }

// Dim returns the dimension of the members.
func (s *Set) Dim() int { return s.dim }

// Len returns the number of members; valid ids are exactly [0, Len()).
func (s *Set) Len() int { return s.n }

// At returns member id as a view into the arena, with its capacity capped
// so an append through the view cannot clobber the next member. Members
// never change once added, so a view stays valid (and unchanged) after the
// arena is reallocated: it keeps aliasing the old backing array. Callers
// must not modify it.
func (s *Set) At(id int32) []int64 {
	o := int(id) * s.dim
	return s.arena[o : o+s.dim : o+s.dim]
}

// Find returns the id of the member equal to v, whose hash is h.
func (s *Set) Find(v []int64, h uint64) (int32, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	_, id := s.probe(v, h)
	return id - 1, id != 0
}

// Add appends a copy of v, whose hash is h, and returns its id. v must not
// be a member already.
func (s *Set) Add(v []int64, h uint64) int32 {
	s.reserve()
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return s.place(i, v, h)
}

// Insert adds a copy of v and reports whether it was absent (false means
// an equal vector was already a member).
func (s *Set) Insert(v []int64) bool {
	s.reserve()
	h := Hash(v)
	i, id := s.probe(v, h)
	if id != 0 {
		return false
	}
	s.place(i, v, h)
	return true
}

// probe walks v's probe chain and returns the slot holding v with its
// id + 1, or the empty slot that ends the chain with 0. The table must be
// non-empty.
func (s *Set) probe(v []int64, h uint64) (uint64, int32) {
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := s.slots[i]
		if id == 0 || (s.hashes[i] == h && Equal(s.At(id-1), v)) {
			return i, id
		}
	}
}

// place stores v as the next member in empty slot i.
func (s *Set) place(i uint64, v []int64, h uint64) int32 {
	s.arena = append(s.arena, v...)
	s.n++
	s.slots[i] = int32(s.n)
	s.hashes[i] = h
	return int32(s.n - 1)
}

// reserve makes room for one more member, doubling the table (min 64
// slots) and reinserting from the cached hashes; the arena is not
// consulted.
func (s *Set) reserve() {
	if (s.n+1)*4 <= len(s.slots)*3 {
		return
	}
	newCap := 64
	if len(s.slots) > 0 {
		newCap = len(s.slots) * 2
	}
	oldSlots, oldHashes := s.slots, s.hashes
	s.slots = make([]int32, newCap)
	s.hashes = make([]uint64, newCap)
	mask := uint64(newCap - 1)
	for j, id := range oldSlots {
		if id == 0 {
			continue
		}
		i := oldHashes[j] & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = id
		s.hashes[i] = oldHashes[j]
	}
}

// Hash hashes the raw int64 coordinates of a vector: FNV-1a over the
// words, finalized with the Murmur3 avalanche so that low-entropy inputs
// (small counts in few coordinates) still spread over all 64 bits.
func Hash(w []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range w {
		h ^= uint64(x)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Equal reports a == b componentwise. The scan is unrolled 4-wide: it sits
// on every probe hit, and the bounds-check-free quad with a single OR'd
// early exit keeps it ahead of the word-at-a-time loop on the dimensions
// the cores run at.
func Equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aq := a[i : i+4 : i+4]
		bq := b[i : i+4 : i+4]
		if aq[0] != bq[0] || aq[1] != bq[1] || aq[2] != bq[2] || aq[3] != bq[3] {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
