// Package ideal implements upward-closed and downward-closed subsets of ℕ^d
// with finite symbolic representations, the order-theoretic backbone of
// Section 3 of the paper:
//
//   - an upward-closed set is represented by its finite antichain of minimal
//     elements (well-defined by Dickson's lemma);
//   - a downward-closed set is represented as a finite union of ideals; an
//     Ideal fixes for each coordinate either a finite cap c (v_i ≤ c) or ω
//     (unbounded). An ideal with caps B on the coordinates outside S and ω
//     exactly on S is the downward closure of the paper's basis element
//     (B, S); the paper's exact-form base {B' + ℕ^S : B' ≤ B off S} is
//     recovered by enumerating the finite coordinates, which is how the
//     (k+2)^n count in Lemma 3.2 arises.
//
// Complementation maps between the two representations exactly, giving the
// duality used to compute stable sets: SC_b is the complement of the
// upward-closed set of configurations that can cover a ¬b state.
//
// UpSet is the antichain workhorse of the backward-coverability fixpoint in
// internal/stable, so it is built for throughput: minimal elements live in
// a vecset.Set, which also rejects exact duplicates through its
// raw-coordinate hash table, and domination scans are pruned by
// per-element signatures (antichain.go). The pre-arena implementation is
// retained verbatim as NaiveUpSet (naive.go) for differential tests and
// benchmarks.
package ideal

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/multiset"
	"repro/internal/vecset"
)

// Omega is the cap value denoting an unbounded (ω) coordinate of an Ideal.
const Omega = int64(-1)

// UpSet is an upward-closed subset of ℕ^d represented by its minimal
// elements.
//
// Every element ever inserted stays a member of elems, removed ones
// included. A stale duplicate hit is still a correct "do not add" answer:
// a removed element is dominated by whatever removed it, so the set cannot
// grow by re-adding it.
type UpSet struct {
	d     int
	elems *vecset.Set // every element ever stored (live + removed)
	ids   []int32     // current antichain, in insertion order
	sigs  []sig       // parallel to ids
	live  []bool      // per stored id: still a minimal element?
}

// NewUpSet returns the upward closure of the given generators (all of
// dimension d; the empty generator list gives the empty set).
func NewUpSet(d int, gens ...multiset.Vec) *UpSet {
	u := &UpSet{d: d, elems: vecset.New(d)}
	u.Add(gens...)
	return u
}

// RestoreUpSet rebuilds an UpSet verbatim from a stored minimal antichain
// — one previously obtained from MinBasis() — skipping the domination
// scans Insert pays: elements of an antichain are pairwise incomparable by
// construction, so the scans cannot reject or evict anything. Arena order
// is the input order, so a basis stored in canonical order restores to an
// UpSet indistinguishable from CanonicalUpSet's output. The caller vouches
// the input is an antichain; only dimensions are checked (a dominated or
// duplicate element would silently corrupt the set).
func RestoreUpSet(d int, basis []multiset.Vec) (*UpSet, error) {
	u := &UpSet{
		d:     d,
		elems: vecset.New(d),
		ids:   make([]int32, len(basis)),
		sigs:  make([]sig, len(basis)),
		live:  make([]bool, len(basis)),
	}
	for k, m := range basis {
		if m.Dim() != d {
			return nil, fmt.Errorf("ideal: restore element %d has dimension %d, want %d", k, m.Dim(), d)
		}
		h := vecset.Hash(m)
		u.ids[k] = u.elems.Add(m, h)
		u.live[k] = true
		mask, norm := signatureOf(m)
		u.sigs[k] = sig{support: mask, norm: norm, hash: h}
	}
	return u, nil
}

// Less is the canonical total order on equal-dimension vectors:
// lexicographic on coordinates. It is the order SortBasis and
// CanonicalUpSet normalize to.
func Less(a, b multiset.Vec) bool {
	for i, x := range a {
		if x != b[i] {
			return x < b[i]
		}
	}
	return false
}

// SortBasis sorts a basis in place into the canonical (lexicographic)
// element order and returns it.
func SortBasis(basis []multiset.Vec) []multiset.Vec {
	sort.Slice(basis, func(i, j int) bool { return Less(basis[i], basis[j]) })
	return basis
}

// CanonicalUpSet rebuilds an UpSet with its antichain in canonical order:
// the same set, with arena ids assigned in SortBasis order. Two UpSets
// denoting the same set have identical MinBasis slices after
// canonicalization, whatever insertion histories produced them — this is
// what makes a computed analysis and one restored from a stored artifact
// byte-identical.
func CanonicalUpSet(u *UpSet) *UpSet {
	basis := SortBasis(u.MinBasis())
	out := NewUpSet(u.d)
	for _, m := range basis {
		// The input is an antichain, so every insert extends the arena and
		// none evicts: arena order == canonical order.
		out.Insert(m)
	}
	return out
}

// Dim returns the dimension d.
func (u *UpSet) Dim() int { return u.d }

// IsEmpty reports whether the set is empty.
func (u *UpSet) IsEmpty() bool { return len(u.ids) == 0 }

// At returns a read-only view of stored element id (as returned by
// Insert). The view stays valid and unchanged for the lifetime of the set,
// even after the element is removed from the antichain; callers must not
// modify it.
func (u *UpSet) At(id int) multiset.Vec { return multiset.Vec(u.elems.At(int32(id))) }

// Alive reports whether stored element id is still a minimal element of
// the set.
func (u *UpSet) Alive(id int) bool { return u.live[id] }

// Stored returns the number of elements ever stored in the arena, alive or
// not: valid ids are exactly [0, Stored()). Iterating Stored() ids and
// filtering by Alive enumerates the current antichain in arena order.
func (u *UpSet) Stored() int { return u.elems.Len() }

// Contains reports whether v belongs to the set.
func (u *UpSet) Contains(v multiset.Vec) bool {
	if len(v) != u.d {
		return false
	}
	vmask, vnorm := signatureOf(v)
	return u.dominatedSig(v, vmask, vnorm)
}

// dominatedSig reports whether some minimal element is ≤ v, pruning by
// signature before touching coordinates.
func (u *UpSet) dominatedSig(v []int64, vmask uint64, vnorm int64) bool {
	for k, id := range u.ids {
		s := &u.sigs[k]
		if s.support&^vmask != 0 || s.norm > vnorm {
			continue
		}
		if leWords(u.elems.At(id), v) {
			return true
		}
	}
	return false
}

// Insert unions the upward closure of one generator into the set. It
// returns the generator's storage id (usable with At and Alive) and
// whether the set strictly grew; id is -1 when it did not.
func (u *UpSet) Insert(g multiset.Vec) (id int, grew bool) {
	if g.Dim() != u.d {
		panic(fmt.Sprintf("ideal: generator dimension %d, want %d", g.Dim(), u.d))
	}
	h := vecset.Hash(g)
	// Exact duplicate: either still minimal, or removed by a dominator —
	// in both cases the set cannot grow.
	if _, dup := u.elems.Find(g, h); dup {
		return -1, false
	}
	gmask, gnorm := signatureOf(g)
	if u.dominatedSig(g, gmask, gnorm) {
		return -1, false
	}
	// Drop elements dominated by g. g ≤ m needs support(g) ⊆ support(m)
	// and norm(g) ≤ norm(m); both are one-word rejections.
	keptIDs := u.ids[:0]
	keptSigs := u.sigs[:0]
	for k, mid := range u.ids {
		s := u.sigs[k]
		if gmask&^s.support == 0 && gnorm <= s.norm && leWords(g, u.elems.At(mid)) {
			u.live[mid] = false
			continue
		}
		keptIDs = append(keptIDs, mid)
		keptSigs = append(keptSigs, s)
	}
	u.ids, u.sigs = keptIDs, keptSigs

	nid := u.elems.Add(g, h)
	u.live = append(u.live, true)
	u.ids = append(u.ids, nid)
	u.sigs = append(u.sigs, sig{support: gmask, norm: gnorm, hash: h})
	return int(nid), true
}

// Add unions the upward closures of the generators into the set and reports
// whether the set strictly grew.
func (u *UpSet) Add(gens ...multiset.Vec) bool {
	grew := false
	for _, g := range gens {
		if _, ok := u.Insert(g); ok {
			grew = true
		}
	}
	return grew
}

// MinBasis returns a copy of the antichain of minimal elements, in
// insertion order.
func (u *UpSet) MinBasis() []multiset.Vec {
	out := make([]multiset.Vec, len(u.ids))
	for k, id := range u.ids {
		out[k] = multiset.Vec(u.elems.At(id)).Clone()
	}
	return out
}

// Size returns the number of minimal elements.
func (u *UpSet) Size() int { return len(u.ids) }

// Norm returns the maximal ‖m‖∞ over minimal elements (0 for the empty
// set).
func (u *UpSet) Norm() int64 {
	var n int64
	for k := range u.sigs {
		if u.sigs[k].norm > n {
			n = u.sigs[k].norm
		}
	}
	return n
}

// Clone returns a deep copy. The antichain is already minimal, so the copy
// is a flat arena compaction — no re-minimization through Add (the naive
// core's O(n²) Clone) and no rehashing (signatures cache the hashes).
func (u *UpSet) Clone() *UpSet {
	n := len(u.ids)
	out := &UpSet{
		d:     u.d,
		elems: vecset.New(u.d),
		ids:   make([]int32, n),
		sigs:  make([]sig, n),
		live:  make([]bool, n),
	}
	copy(out.sigs, u.sigs)
	for k, id := range u.ids {
		out.ids[k] = out.elems.Add(u.elems.At(id), u.sigs[k].hash)
		out.live[k] = true
	}
	return out
}

// Union returns the union of u and v. u's antichain is copied directly
// (Clone); only v's elements go through domination checks.
func (u *UpSet) Union(v *UpSet) *UpSet {
	out := u.Clone()
	for _, id := range v.ids {
		out.Insert(multiset.Vec(v.elems.At(id)))
	}
	return out
}

// Intersect returns the intersection of u and v: its minimal elements are
// the minimized pairwise componentwise maxima of the two bases.
func (u *UpSet) Intersect(v *UpSet) *UpSet {
	if u.d != v.d {
		panic(fmt.Sprintf("ideal: dimension mismatch %d vs %d", u.d, v.d))
	}
	var gens []multiset.Vec
	for _, a := range u.ids {
		av := multiset.Vec(u.elems.At(a))
		for _, b := range v.ids {
			gens = append(gens, av.Max(multiset.Vec(v.elems.At(b))))
		}
	}
	return NewUpSet(u.d, multiset.Minimal(gens)...)
}

// Equal reports whether u and v denote the same set (antichain equality).
func (u *UpSet) Equal(v *UpSet) bool {
	if u.d != v.d || len(u.ids) != len(v.ids) {
		return false
	}
	for _, id := range u.ids {
		if !v.Contains(multiset.Vec(u.elems.At(id))) {
			return false
		}
	}
	for _, id := range v.ids {
		if !u.Contains(multiset.Vec(v.elems.At(id))) {
			return false
		}
	}
	return true
}

// String renders the minimal basis.
func (u *UpSet) String() string {
	parts := make([]string, len(u.ids))
	for k, id := range u.ids {
		parts[k] = multiset.Vec(u.elems.At(id)).String()
	}
	return "↑{" + strings.Join(parts, ", ") + "}"
}
