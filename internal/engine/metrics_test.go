package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/metrics/testutil"
)

// TestMetricsRequestCounters pins the per-kind request counter and latency
// histogram: every finished request lands in exactly one (kind, status)
// cell and one latency observation.
func TestMetricsRequestCounters(t *testing.T) {
	eng := New()
	m := eng.Metrics()

	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if _, err := eng.Do(context.Background(), Request{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind must fail")
	}

	want := `
		# HELP pp_engine_requests_total Analysis requests finished, by kind and status.
		# TYPE pp_engine_requests_total counter
		pp_engine_requests_total{kind="invalid",status="bad_request"} 1
		pp_engine_requests_total{kind="stable",status="ok"} 2
	`
	if err := testutil.CollectAndCompare(m.Requests, strings.NewReader(want)); err != nil {
		t.Error(err)
	}
	if got := m.Latency.WithLabelValues("stable").Count(); got != 2 {
		t.Errorf("latency observations for stable = %d, want 2", got)
	}
	if m.Latency.WithLabelValues("invalid").Count() != 1 {
		t.Error("invalid-kind request must still be timed")
	}
}

// TestMetricsCacheHitIncrementsHitNotMiss pins the artifact-cache counters:
// the first stable request misses, the repeat hits — and a hit must not
// move the miss counter.
func TestMetricsCacheHitIncrementsHitNotMiss(t *testing.T) {
	eng := New()
	m := eng.Metrics()

	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if got := testutil.ToFloat64(m.CacheMisses); got != 1 {
		t.Fatalf("misses after first request = %v, want 1", got)
	}
	if got := testutil.ToFloat64(m.CacheHits); got != 0 {
		t.Fatalf("hits after first request = %v, want 0", got)
	}

	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if got := testutil.ToFloat64(m.CacheHits); got != 1 {
		t.Errorf("hits after repeat = %v, want 1", got)
	}
	if got := testutil.ToFloat64(m.CacheMisses); got != 1 {
		t.Errorf("a cache hit must not move the miss counter: misses = %v, want 1", got)
	}
}

// cacheStats reads the engine's artifact-cache lookup counters.
func cacheStats(e *Engine) (hits, misses uint64) {
	m := e.Metrics()
	return uint64(testutil.ToFloat64(m.CacheHits)), uint64(testutil.ToFloat64(m.CacheMisses))
}

// TestMetricsCacheEvictions pins the eviction counter against a
// capacity-1 cache: caching a second protocol evicts the first.
func TestMetricsCacheEvictions(t *testing.T) {
	eng := New()
	eng.SetCacheLimit(1)
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:4"}})
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if got := testutil.ToFloat64(eng.Metrics().CacheEvictions); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
}

// TestMetricsInterrupted pins the interrupted counter and status label: a
// request abandoned by cancellation counts as interrupted, not error.
func TestMetricsInterrupted(t *testing.T) {
	eng := New()
	m := eng.Metrics()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Do(ctx, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}}); err == nil {
		t.Fatal("cancelled request must fail")
	}
	if got := testutil.ToFloat64(m.Interrupted); got != 1 {
		t.Errorf("interrupted = %v, want 1", got)
	}
	if got := testutil.ToFloat64(m.Requests.WithLabelValues("stable", "interrupted")); got != 1 {
		t.Errorf("requests{stable,interrupted} = %v, want 1", got)
	}
}

// TestMetricsSlotGauges pins the semaphore gauges to SlotStats: they read
// the live semaphore at gather time, including after a SetSlots resize.
func TestMetricsSlotGauges(t *testing.T) {
	eng := New()
	m := eng.Metrics()
	_, capacity, _ := eng.SlotStats()
	if got := testutil.ToFloat64(m.SlotsCapacity); got != float64(capacity) {
		t.Errorf("slots_capacity = %v, want %d", got, capacity)
	}
	if got := testutil.ToFloat64(m.SlotsBusy); got != 0 {
		t.Errorf("slots_busy idle = %v, want 0", got)
	}
	eng.SetSlots(3)
	if got := testutil.ToFloat64(m.SlotsCapacity); got != 3 {
		t.Errorf("slots_capacity after SetSlots(3) = %v, want 3", got)
	}
	if got := testutil.ToFloat64(m.SlotQueue); got != 0 {
		t.Errorf("slot_queue_depth idle = %v, want 0", got)
	}
}

// TestMetricsRegister pins registration: every engine family lands in the
// registry and gathers without collisions.
func TestMetricsRegister(t *testing.T) {
	eng := New()
	reg := metrics.NewRegistry()
	eng.Metrics().Register(reg)
	names := make(map[string]bool)
	for _, f := range reg.Gather() {
		names[f.Name] = true
	}
	for _, want := range []string{
		"pp_engine_requests_total", "pp_engine_request_duration_seconds",
		"pp_engine_cache_hits_total", "pp_engine_cache_misses_total",
		"pp_engine_cache_evictions_total", "pp_engine_interrupted_total",
		"pp_engine_slots_busy", "pp_engine_slots_capacity", "pp_engine_slot_queue_depth",
	} {
		if !names[want] {
			t.Errorf("family %s not registered", want)
		}
	}
}
