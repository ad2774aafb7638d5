package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/realise"
	"repro/internal/stable"
	"repro/internal/store"
)

// Artifact kinds under which the disk store files engine artifacts (and
// under which /v1/artifacts serves them to cluster peers).
const (
	ArtifactStable = "stable"
	ArtifactBasis  = "basis"
)

// ArtifactKinds lists every artifact kind the engine persists.
var ArtifactKinds = []string{ArtifactStable, ArtifactBasis}

// PeerFetchFunc fetches an artifact payload from a cluster peer: the raw
// versioned encoding (already CRC-validated by the transport), or
// (nil, nil) when no peer has it. Errors are treated as misses.
type PeerFetchFunc func(ctx context.Context, kind, hash string) ([]byte, error)

// SetArtifactStore puts a disk store behind the in-memory artifact cache:
// computed artifacts are written through, and cache misses try the store
// before recomputing. Call before serving traffic.
func (e *Engine) SetArtifactStore(s *store.Store) {
	e.mu.Lock()
	e.artstore = s
	e.mu.Unlock()
}

// ArtifactStore returns the disk store behind the cache, or nil.
func (e *Engine) ArtifactStore() *store.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.artstore
}

// SetPeerFetch installs the cluster peer-fetch path, consulted when both
// the in-memory cache and the disk store miss. Call before serving
// traffic.
func (e *Engine) SetPeerFetch(f PeerFetchFunc) {
	e.mu.Lock()
	e.peerFetch = f
	e.mu.Unlock()
}

func (e *Engine) durability() (*store.Store, PeerFetchFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.artstore, e.peerFetch
}

// stableArtifact is the durable stable-analysis encoding, version 2: the
// minimal bases of U_0 and U_1 in canonical order, the fixpoint's
// reporting counters, and the derived ideal decompositions (SC_0, SC_1 and
// their union, ω coordinates as -1 — the in-memory sentinel), which
// stable.RestoreDerived restores verbatim instead of recomputing:
// complementation dominates a restore on threshold families, and skipping
// it is what makes a durable-store hit an order of magnitude cheaper than
// the fixpoint. Version 1 payloads (bases only) no longer decode: like any
// bad payload they are deleted and recomputed, then rewritten as v2.
type stableArtifact struct {
	V          int       `json:"v"`
	Basis0     [][]int64 `json:"basis0"`
	Basis1     [][]int64 `json:"basis1"`
	Iterations [2]int    `json:"iterations"`
	Frontier   [2]int    `json:"frontier"`
	// The derived decompositions, each ideal as its caps vector.
	SC0   [][]int64 `json:"sc0,omitempty"`
	SC1   [][]int64 `json:"sc1,omitempty"`
	SCAll [][]int64 `json:"scAll,omitempty"`
}

// basisArtifactV1 is version 1 of the durable realisable-basis encoding.
// Each transition multiset becomes its sorted [transition, count] pairs;
// the basis slice order (which certify-leaderless consumes) is preserved.
type basisArtifactV1 struct {
	V     int          `json:"v"`
	Basis [][][2]int64 `json:"basis"`
}

func packIdeals(ideals []ideal.Ideal) [][]int64 {
	out := make([][]int64, len(ideals))
	for i, id := range ideals {
		caps := make([]int64, id.Dim())
		for j := range caps {
			caps[j] = id.Cap(j)
		}
		out[i] = caps
	}
	return out
}

func unpackIdeals(rows [][]int64) []ideal.Ideal {
	out := make([]ideal.Ideal, len(rows))
	for i, caps := range rows {
		out[i] = ideal.NewIdeal(caps)
	}
	return out
}

func encodeStableArtifact(a *stable.Analysis) ([]byte, error) {
	art := stableArtifact{V: 2}
	pack := func(basis []multiset.Vec) [][]int64 {
		out := make([][]int64, len(basis))
		for i, m := range basis {
			out[i] = []int64(m)
		}
		return out
	}
	art.Basis0 = pack(a.Unstable(0).MinBasis())
	art.Basis1 = pack(a.Unstable(1).MinBasis())
	art.Iterations = [2]int{a.Iterations(0), a.Iterations(1)}
	art.Frontier = [2]int{a.FrontierProcessed(0), a.FrontierProcessed(1)}
	der := a.Derived()
	art.SC0 = packIdeals(der.SC[0])
	art.SC1 = packIdeals(der.SC[1])
	art.SCAll = packIdeals(der.SCAll)
	return json.Marshal(art)
}

func decodeStableArtifact(p *protocol.Protocol, payload []byte) (*stable.Analysis, error) {
	var art stableArtifact
	if err := json.Unmarshal(payload, &art); err != nil {
		return nil, fmt.Errorf("stable artifact: %w", err)
	}
	if art.V != 2 {
		return nil, fmt.Errorf("stable artifact: unsupported version %d", art.V)
	}
	unpack := func(rows [][]int64) []multiset.Vec {
		out := make([]multiset.Vec, len(rows))
		for i, r := range rows {
			out[i] = multiset.Vec(r)
		}
		return out
	}
	basis := [2][]multiset.Vec{unpack(art.Basis0), unpack(art.Basis1)}
	return stable.RestoreDerived(p, basis, art.Iterations, art.Frontier, stable.Derived{
		SC:    [2][]ideal.Ideal{unpackIdeals(art.SC0), unpackIdeals(art.SC1)},
		SCAll: unpackIdeals(art.SCAll),
	})
}

func encodeBasisArtifact(basis []realise.TransitionMultiset) ([]byte, error) {
	art := basisArtifactV1{V: 1, Basis: make([][][2]int64, len(basis))}
	for i, pi := range basis {
		pairs := make([][2]int64, 0, len(pi))
		for t, c := range pi {
			pairs = append(pairs, [2]int64{int64(t), c})
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
		art.Basis[i] = pairs
	}
	return json.Marshal(art)
}

func decodeBasisArtifact(p *protocol.Protocol, payload []byte) ([]realise.TransitionMultiset, error) {
	var art basisArtifactV1
	if err := json.Unmarshal(payload, &art); err != nil {
		return nil, fmt.Errorf("basis artifact: %w", err)
	}
	if art.V != 1 {
		return nil, fmt.Errorf("basis artifact: unsupported version %d", art.V)
	}
	out := make([]realise.TransitionMultiset, len(art.Basis))
	for i, pairs := range art.Basis {
		pi := make(realise.TransitionMultiset, len(pairs))
		for _, pr := range pairs {
			t, c := int(pr[0]), pr[1]
			if t < 0 || t >= p.NumTransitions() || c <= 0 {
				return nil, fmt.Errorf("basis artifact: bad pair [%d, %d]", pr[0], pr[1])
			}
			pi[t] = c
		}
		out[i] = pi
	}
	return out, nil
}

// loadArtifact fetches the versioned payload for (kind, hash): disk store
// first, then cluster peers. A peer hit is written through to the local
// store so the next restart is warm without the network. Every failure —
// corruption, decode, transport — degrades to a miss; durable state is
// never trusted over recomputation.
func (e *Engine) loadArtifact(ctx context.Context, kind, hash string) []byte {
	st, peers := e.durability()
	if st == nil {
		return nil
	}
	if payload, err := st.Get(kind, hash); err == nil && payload != nil {
		return payload
	}
	if peers == nil {
		return nil
	}
	payload, err := peers(ctx, kind, hash)
	switch {
	case err != nil:
		st.Metrics().PeerFetches.WithLabelValues("error").Inc()
		return nil
	case payload == nil:
		st.Metrics().PeerFetches.WithLabelValues("miss").Inc()
		return nil
	}
	st.Metrics().PeerFetches.WithLabelValues("hit").Inc()
	// Best effort: a failed write-through only costs the next restart.
	_ = st.Put(kind, hash, payload)
	return payload
}

// saveArtifact writes a computed artifact through to the disk store, best
// effort (failures are visible in pp_store_writes_total{result="error"}).
func (e *Engine) saveArtifact(kind, hash string, payload []byte, err error) {
	st, _ := e.durability()
	if st == nil || err != nil {
		return
	}
	_ = st.Put(kind, hash, payload)
}

// loadMemo tries to satisfy a miss for an artifact of kind k from durable
// state.
func loadMemo[T any](e *Engine, ctx context.Context, k *artifactKind[T], p *protocol.Protocol, hash string) (T, bool) {
	var zero T
	payload := e.loadArtifact(ctx, k.name, hash)
	if payload == nil {
		return zero, false
	}
	val, err := k.decode(p, payload)
	if err != nil {
		// Decoded frame but bogus content (e.g. a hash collision across
		// protocol versions, or a payload version this build no longer
		// reads): delete so it cannot resurface, recompute.
		if st, _ := e.durability(); st != nil {
			_ = st.Delete(k.name, hash)
		}
		return zero, false
	}
	return val, true
}

// ArtifactBytes serves the durable encoding of a completed artifact, for
// the /v1/artifacts peer-fetch endpoint: the in-memory cache if the
// artifact is complete, else the disk store. ok is false when this node
// has nothing to offer (in-flight computations are not waited on).
func (e *Engine) ArtifactBytes(ctx context.Context, kind, hash string) ([]byte, bool, error) {
	e.mu.Lock()
	a := e.cache[hash]
	st := e.artstore
	e.mu.Unlock()
	if a != nil {
		switch kind {
		case ArtifactStable:
			if a.stable.completed() && a.stable.err == nil {
				payload, err := encodeStableArtifact(a.stable.val)
				return payload, err == nil, err
			}
		case ArtifactBasis:
			if a.basis.completed() && a.basis.err == nil {
				payload, err := encodeBasisArtifact(a.basis.val)
				return payload, err == nil, err
			}
		}
	}
	if st == nil {
		return nil, false, nil
	}
	payload, err := st.Get(kind, hash)
	if err != nil || payload == nil {
		return nil, false, nil
	}
	return payload, true, nil
}
