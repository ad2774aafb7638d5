package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics/testutil"
	"repro/internal/store"
)

// TestLRUHitSurvivesEviction pins the LRU contract: an entry hit just
// before an eviction cycle outlives it, and the cold entry goes instead.
func TestLRUHitSurvivesEviction(t *testing.T) {
	eng := New()
	eng.SetCacheLimit(2)
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:4"}})
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	// Touch binary:4 so binary:5 is now the least recently used …
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:4"}})
	// … and let a third protocol force one eviction.
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:6"}})

	_, missesBefore := cacheStats(eng)
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:4"}})
	if _, misses := cacheStats(eng); misses != missesBefore {
		t.Fatal("just-hit entry was evicted: repeat request missed the cache")
	}
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if _, misses := cacheStats(eng); misses != missesBefore+1 {
		t.Fatal("least recently used entry was not the one evicted")
	}
}

// TestDiskStoreWarmRestart pins the acceptance criterion: a restarted
// engine (fresh memory cache, same artifact directory) serves its first
// repeated-protocol request from the disk store — no recomputation, and
// the result is bit-identical to the computed one.
func TestDiskStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Engine {
		eng := New()
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetArtifactStore(s)
		return eng
	}

	first := open()
	resStable := do(t, first, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})
	resBasis := do(t, first, Request{Kind: KindBasis, Protocol: ProtocolRef{Spec: "binary:5"}})
	if got := first.Computations(); got != 2 {
		t.Fatalf("cold engine ran %d computations, want 2", got)
	}

	second := open()
	res2 := do(t, second, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})
	if got := second.Computations(); got != 0 {
		t.Fatalf("restarted engine recomputed (%d computations) despite disk store", got)
	}
	if !reflect.DeepEqual(res2.Stable, resStable.Stable) {
		t.Fatalf("disk-restored stable result differs:\n%+v\nvs\n%+v", res2.Stable, resStable.Stable)
	}
	res3 := do(t, second, Request{Kind: KindBasis, Protocol: ProtocolRef{Spec: "binary:5"}})
	if got := second.Computations(); got != 0 {
		t.Fatalf("restarted engine recomputed the basis (%d computations)", got)
	}
	if !reflect.DeepEqual(res3.Basis, resBasis.Basis) {
		t.Fatal("disk-restored basis differs from the computed one")
	}
	hits := testutil.ToFloat64(second.ArtifactStore().Metrics().Reads.WithLabelValues("hit"))
	if hits != 2 {
		t.Fatalf("pp_store_reads_total{result=hit} = %v, want 2", hits)
	}
}

// TestCorruptDiskEntryRecomputed pins corruption tolerance end to end: a
// flipped bit on disk must surface as a recomputation, never a wrong
// result, and the store heals.
func TestCorruptDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	eng := New()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetArtifactStore(s)
	want := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})

	hash := want.Protocol.Hash
	p := filepath.Join(dir, ArtifactStable, hash)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := New()
	fresh.SetArtifactStore(s)
	got := do(t, fresh, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if fresh.Computations() != 1 {
		t.Fatal("corrupt entry was trusted instead of recomputed")
	}
	if !reflect.DeepEqual(got.Stable, want.Stable) {
		t.Fatal("recomputed result differs")
	}
	// The recompute healed the store: one more restart is warm again.
	third := New()
	third.SetArtifactStore(s)
	do(t, third, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if third.Computations() != 0 {
		t.Fatal("store did not heal after corruption recompute")
	}
}

// TestStaleStablePayloadRecomputed pins the payload-version contract: a
// stored version-1 stable payload (bases only) and a stored version-2
// payload whose basis is not in canonical order are both misses. Each is
// recomputed, the result is identical to a fresh one, and the entry is
// rewritten as the canonical version-2 payload.
func TestStaleStablePayloadRecomputed(t *testing.T) {
	const spec = "binary:5"
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	source := New()
	source.SetArtifactStore(s)
	want := do(t, source, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: spec}})
	hash := want.Protocol.Hash
	canonical, err := s.Get(ArtifactStable, hash)
	if err != nil || canonical == nil {
		t.Fatalf("computed artifact not stored: %v", err)
	}
	var art stableArtifact
	if err := json.Unmarshal(canonical, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Basis0) < 2 {
		t.Fatalf("%s: U_0 basis has %d elements, need 2 to reorder", spec, len(art.Basis0))
	}

	v1 := art
	v1.V, v1.SC0, v1.SC1, v1.SCAll = 1, nil, nil, nil
	unordered := art
	unordered.Basis0 = append([][]int64{art.Basis0[len(art.Basis0)-1]}, art.Basis0[:len(art.Basis0)-1]...)
	for name, stale := range map[string]stableArtifact{"v1": v1, "non-canonical v2": unordered} {
		payload, err := json.Marshal(stale)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(ArtifactStable, hash, payload); err != nil {
			t.Fatal(err)
		}
		eng := New()
		eng.SetArtifactStore(s)
		got := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: spec}})
		if eng.Computations() != 1 {
			t.Fatalf("%s payload: %d computations, want 1 (recompute)", name, eng.Computations())
		}
		if !reflect.DeepEqual(got.Stable, want.Stable) {
			t.Fatalf("%s payload: recomputed result differs:\n%+v\nvs\n%+v", name, got.Stable, want.Stable)
		}
		rewritten, err := s.Get(ArtifactStable, hash)
		if err != nil || !bytes.Equal(rewritten, canonical) {
			t.Fatalf("%s payload: store not rewritten as canonical v2 (err %v)", name, err)
		}
	}
}

// TestPeerFetchFallback pins the peer-fetch path: disk miss → peer hit →
// local write-through, and peer errors degrade to recomputation.
func TestPeerFetchFallback(t *testing.T) {
	source := New()
	sdir := t.TempDir()
	ss, err := store.Open(sdir)
	if err != nil {
		t.Fatal(err)
	}
	source.SetArtifactStore(ss)
	want := do(t, source, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})

	fetches := 0
	peer := func(ctx context.Context, kind, hash string) ([]byte, error) {
		fetches++
		payload, ok, err := source.ArtifactBytes(ctx, kind, hash)
		if err != nil || !ok {
			return nil, err
		}
		return payload, nil
	}

	eng := New()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetArtifactStore(s)
	eng.SetPeerFetch(peer)
	got := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})
	if fetches != 1 {
		t.Fatalf("peer fetched %d times, want 1", fetches)
	}
	if eng.Computations() != 0 {
		t.Fatal("peer hit did not prevent recomputation")
	}
	if !reflect.DeepEqual(got.Stable, want.Stable) {
		t.Fatal("peer-fetched result differs")
	}
	if v := testutil.ToFloat64(s.Metrics().PeerFetches.WithLabelValues("hit")); v != 1 {
		t.Fatalf("pp_store_peer_fetches_total{result=hit} = %v, want 1", v)
	}
	// Write-through: the same engine restarted is warm without the peer.
	again := New()
	s2, err := store.Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	again.SetArtifactStore(s2)
	again.SetPeerFetch(func(context.Context, string, string) ([]byte, error) {
		return nil, errors.New("peer down")
	})
	do(t, again, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})
	if again.Computations() != 0 {
		t.Fatal("peer hit was not written through to the local store")
	}
}

// TestPeerErrorDegradesToRecompute: a failing peer never blocks a result.
func TestPeerErrorDegradesToRecompute(t *testing.T) {
	eng := New()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetArtifactStore(s)
	eng.SetPeerFetch(func(context.Context, string, string) ([]byte, error) {
		return nil, errors.New("peer down")
	})
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if eng.Computations() != 1 {
		t.Fatal("peer error should fall back to computing")
	}
	if v := testutil.ToFloat64(s.Metrics().PeerFetches.WithLabelValues("error")); v != 1 {
		t.Fatalf("peer_fetches{error} = %v, want 1", v)
	}
}

// TestStoreGCRacingPeerFetch is the pressure drill for size governance: a
// worker warming its disk store from a coordinator peer while the GC —
// budgeted below the working set, with deletes failing on a faultinject
// schedule — evicts the same hashes concurrently. Every analysis must
// come back correct (refetched or recomputed), and no read may ever
// surface a torn artifact: eviction unlinks whole files, so a racing Get
// sees either the full old bytes or a clean miss.
func TestStoreGCRacingPeerFetch(t *testing.T) {
	if err := faultinject.Configure(faultinject.PointStoreDelete + "=every:4"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	source := New()
	ss, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	source.SetArtifactStore(ss)
	protos := []string{"majority", "binary:5", "flock:4", "flock:5", "flock:6"}
	want := make(map[string]*Result, len(protos))
	var workingSet int64
	for _, p := range protos {
		want[p] = do(t, source, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: p}})
	}
	if err := filepath.Walk(ss.Dir(), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			workingSet += info.Size()
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	ws, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Budget below the working set: warming all five protocols must force
	// evictions, and every write-through past the budget kicks a pass, so
	// the GC races the fetches.
	if err := ws.EnableGC(workingSet / 2); err != nil {
		t.Fatal(err)
	}
	defer ws.CloseGC()

	peerDown := false
	peer := func(ctx context.Context, kind, hash string) ([]byte, error) {
		if peerDown {
			return nil, nil
		}
		payload, ok, err := source.ArtifactBytes(ctx, kind, hash)
		if err != nil || !ok {
			return nil, err
		}
		return payload, nil
	}

	for round := 0; round < 6; round++ {
		// Halfway in, the coordinator goes away: evicted artifacts must now
		// be recomputed rather than refetched — still never served torn.
		peerDown = round >= 3
		eng := New() // fresh memory cache: every artifact rides the disk/peer path
		eng.SetArtifactStore(ws)
		eng.SetPeerFetch(peer)
		for _, p := range protos {
			got := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: p}})
			if !reflect.DeepEqual(got.Stable, want[p].Stable) {
				t.Fatalf("round %d: %s diverged under GC pressure", round, p)
			}
		}
	}
	// The final round recomputed and wrote through every artifact, so the
	// store ends over budget whether or not the background ticker got a
	// pass in during the rounds (fast artifact decodes can finish the whole
	// drill inside one interval): one synchronous pass makes the eviction
	// assertion deterministic.
	ws.RunGC()
	if v := testutil.ToFloat64(ws.Metrics().GCEvictions); v == 0 {
		t.Fatal("budget below working set but the GC evicted nothing")
	}
	if v := testutil.ToFloat64(ws.Metrics().Reads.WithLabelValues("corrupt")); v != 0 {
		t.Fatalf("eviction churn surfaced %v torn reads, want 0", v)
	}
}
