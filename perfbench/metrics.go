package main

import (
	"strings"
	"time"

	"repro/internal/engine"
)

// metricDef names one reported metric and its unit; the lists below are
// the single source of the names BENCHMARK.json and predictions.json cite
// (bench_test.go holds the two files to them).
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of a --trace 0 run, reported on
// every workload. A workload's "requests" are its /v1/analyze calls
// (analyze-mix) or its whole /v1/sweep calls, POST to summary row; its
// "analyses" are the replies or the sweep cells.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // launch to ready, plus the warm-store fill where there is one
	{"latency_p50_ms", "ms"},    // median client-side request latency
	{"throughput_per_s", "1/s"}, // analyses completed per second of request loop
	{"server.cpu_s", "s"},       // ppserve user+sys CPU per pass
	{"server.peak_rss_mb", "MB"},
}

// sweepCellKinds are the kinds the sweep grid contains; the per-kind cell
// metrics cover exactly these.
var sweepCellKinds = []engine.Kind{
	engine.KindStable, engine.KindVerify, engine.KindSimulate, engine.KindBasis,
	engine.KindCertifyChain, engine.KindCertifyLeaderless, engine.KindCover,
}

// perLayer are the metrics of a --trace 1 run, reported on every workload
// (0 where a workload never reaches the layer).
func perLayer() []metricDef {
	defs := []metricDef{
		{"serve.overhead_ms_p50", "ms"},
		{"serve.overhead_ms_p99", "ms"},
		{"serve.overhead_samples", "count"},
		{"serve.shed_total", "count"},
		{"serve.rate_limited_total", "count"},
		{"analyze.latency_p99_ms", "ms"},
		{"analyze.latency_samples", "count"},
	}
	for _, k := range engine.Kinds {
		defs = append(defs, metricDef{"engine.busy_s." + string(k), "s"})
	}
	defs = append(defs,
		metricDef{"engine.resolve_hash_us", "us"},
		metricDef{"engine.cache_hit_ratio", "ratio"},
		metricDef{"engine.computations", "count"},
		metricDef{"engine.durable_hit_ms", "ms"},
		metricDef{"protocol.parse_us", "us"},
		metricDef{"sweep.concurrency", "ratio"},
		metricDef{"sweep.expand_ms", "ms"},
	)
	for _, k := range sweepCellKinds {
		defs = append(defs,
			metricDef{"sweep.cell_ms_p50." + string(k), "ms"},
			metricDef{"sweep.cell_ms_sum." + string(k), "ms"})
	}
	return append(defs,
		metricDef{"stable.analyze_s", "s"},
		metricDef{"stable.alloc_bytes", "bytes"},
		metricDef{"stable.basis_elements", "count"},
		metricDef{"ideal.complement_up_s", "s"},
		metricDef{"ideal.complement_up_alloc_bytes", "bytes"},
		metricDef{"ideal.restore_s", "s"},
		metricDef{"reach.verify_s", "s"},
		metricDef{"reach.cover_s", "s"},
		metricDef{"reach.configs", "count"},
		metricDef{"sim.replicas_s", "s"},
		metricDef{"sim.interactions_per_s", "1/s"},
		metricDef{"realise.basis_s", "s"},
		metricDef{"dioph.basis_vectors", "count"},
		metricDef{"pump.find_s", "s"},
		metricDef{"pump.check_s", "s"},
		metricDef{"store.put_s", "s"},
		metricDef{"store.bytes_written", "bytes"},
		metricDef{"store.get_s", "s"},
		metricDef{"store.bytes_read", "bytes"},
		metricDef{"journal.append_cell_ms", "ms"},
		metricDef{"cluster.peer_fetch_ms", "ms"},
		metricDef{"cluster.ranges_dispatched", "count"},
		metricDef{"cluster.ranges_retried", "count"},
		metricDef{"cluster.max_worker_cell_share", "ratio"},
		metricDef{"share.cache_hit", "ratio"},
		metricDef{"share.store_hit", "ratio"},
		metricDef{"share.peer_hit", "ratio"},
		metricDef{"trace.http_pass_s", "s"},
		metricDef{"trace.untraced_replay_s", "s"},
		metricDef{"trace.traced_replay_s", "s"},
		metricDef{"trace.layer_coverage", "ratio"},
	)
}

// busyLayers are the spans whose sum is compared with the server-side
// analysis time (trace.layer_coverage). ideal.complement_up_s is left out:
// the fixpoint already complements inside stable.analyze_s, and the
// separate span re-does that work to isolate it.
var busyLayers = []string{
	"stable.analyze_s", "ideal.restore_s", "realise.basis_s", "reach.verify_s",
	"reach.cover_s", "sim.replicas_s", "pump.find_s", "pump.check_s",
	"store.put_s", "store.get_s", "journal.append", "saturate",
}

// unstolen is the factor that takes a CPU-bound wall-clock interval,
// measured while the host stole the given share of this machine's CPU
// time, to its length on an undisturbed machine (1 when not adjusting).
// On a shared host the steal share swings from under 1% to over 40%
// between runs minutes apart and stretches such intervals — a whole pass,
// a whole sweep, a warm-store fill, a server launch (the median over many)
// — by that proportion: without the adjustment their run-to-run spread
// measures the neighbours. A sub-millisecond analyze request mostly waits
// on the network stack and is either hit by a steal burst or not, so its
// latency is left as measured; CPU time and memory need no adjustment,
// the kernel does not charge stolen ticks to a process.
func unstolen(steal float64, adjust bool) float64 {
	if !adjust {
		return 1
	}
	return 1 - steal
}

// passSeries are the per-pass (per-set-up for setup_s) samples behind each
// end-to-end metric, long intervals adjusted for host steal when adjust
// is set; the latency series holds each pass's median.
func passSeries(o *outcome, adjust bool) map[string][]float64 {
	var fills []float64
	for _, f := range o.fills {
		fills = append(fills, f.secs*unstolen(f.steal, adjust))
	}
	fill := median(fills)
	s := make(map[string][]float64)
	for _, p := range o.passes {
		k := unstolen(p.steal, adjust)
		if o.launches == nil {
			s["setup_s"] = append(s["setup_s"], fill+p.setup*k)
		}
		s["latency_p50_ms"] = append(s["latency_p50_ms"], median(p.latMs)*o.latencyFactor(k))
		s["throughput_per_s"] = append(s["throughput_per_s"], float64(p.ops)/(p.wall*k))
		s["server.cpu_s"] = append(s["server.cpu_s"], p.cpu)
		s["server.peak_rss_mb"] = append(s["server.peak_rss_mb"], p.rss)
	}
	for _, x := range o.launches {
		s["setup_s"] = append(s["setup_s"], fill+x*unstolen(o.launchSteal, adjust))
	}
	return s
}

// latencyFactor is the steal adjustment of the workload's request
// latencies: whole sweeps are long intervals, analyze requests are not.
func (o *outcome) latencyFactor(k float64) float64 {
	if o.mix != nil {
		return 1
	}
	return k
}

// endToEndMetrics folds a run's passes into the end-to-end metrics: the
// median of each series, except that latency is the median over every
// request of the run.
func endToEndMetrics(o *outcome, adjust bool) map[string]float64 {
	m := make(map[string]float64)
	for name, xs := range passSeries(o, adjust) {
		m[name] = median(xs)
	}
	var lat []float64
	for _, p := range o.passes {
		k := o.latencyFactor(unstolen(p.steal, adjust))
		for _, l := range p.latMs {
			lat = append(lat, l*k)
		}
	}
	m["latency_p50_ms"] = median(lat)
	return m
}

// counterSum totals one /metrics family over every pass.
func (o *outcome) counterSum(name string, labels ...string) float64 {
	t := 0.0
	for _, p := range o.passes {
		t += family(p.counters, name, labels...)
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passMetrics are the per-layer numbers read off the untraced passes
// themselves: /metrics deltas, reply provenance and the sweep streams.
func passMetrics(o *outcome) map[string]float64 {
	m := make(map[string]float64)
	var overhead, lat, fetch []float64
	hits, analyses := 0, 0
	cellMs := make(map[engine.Kind][]float64)
	var cellSum, wallSum float64
	for _, p := range o.passes {
		fetch = append(fetch, p.fetchMs...)
		for _, rp := range p.replies {
			analyses++
			lat = append(lat, float64(rp.Latency)/float64(time.Millisecond))
			if res := decodeReply(rp); res != nil {
				overhead = append(overhead, float64(rp.Latency)/float64(time.Millisecond)-res.ElapsedMillis)
				if res.CacheHit {
					hits++
				}
			}
		}
		if sr := p.sweep; sr != nil && sr.Summary != nil {
			overhead = append(overhead, float64(sr.Wall)/float64(time.Millisecond)-sr.Summary.WallMillis)
			wallSum += sr.Summary.WallMillis
			for _, cr := range sr.Cells {
				analyses++
				if cr.CacheHit {
					hits++
				}
				cellMs[cr.Kind] = append(cellMs[cr.Kind], cr.ElapsedMillis)
				cellSum += cr.ElapsedMillis
			}
		}
	}
	m["serve.overhead_ms_p50"] = median(overhead)
	m["serve.overhead_ms_p99"], _ = percentile(overhead, 0.99)
	m["serve.overhead_samples"] = float64(len(overhead))
	if o.mix != nil {
		m["analyze.latency_p99_ms"], _ = percentile(lat, 0.99)
		m["analyze.latency_samples"] = float64(len(lat))
	}
	m["serve.shed_total"] = o.counterSum("pp_serve_shed_total")
	m["serve.rate_limited_total"] = o.counterSum("pp_serve_rate_limited_total")
	cacheHits, cacheMisses := o.counterSum("pp_engine_cache_hits_total"), o.counterSum("pp_engine_cache_misses_total")
	m["engine.cache_hit_ratio"] = ratio(cacheHits, cacheHits+cacheMisses)
	m["sweep.concurrency"] = ratio(cellSum, wallSum)
	for _, k := range sweepCellKinds {
		m["sweep.cell_ms_p50."+string(k)] = median(cellMs[k])
		m["sweep.cell_ms_sum."+string(k)] = sum(cellMs[k]) / float64(max(1, len(o.passes)))
	}
	// The property shares: analyses answered from memoized artifacts, disk
	// lookups the store could serve, and cluster peer fetches that hit.
	m["share.cache_hit"] = ratio(float64(hits), float64(analyses))
	m["share.store_hit"] = ratio(o.counterSum("pp_store_reads_total", `result="hit"`), o.counterSum("pp_store_reads_total"))
	m["share.peer_hit"] = ratio(o.counterSum("pp_store_peer_fetches_total", `result="hit"`), o.counterSum("pp_store_peer_fetches_total"))
	m["cluster.peer_fetch_ms"] = median(fetch)
	m["cluster.ranges_dispatched"] = o.counterSum("pp_cluster_ranges_dispatched_total") / float64(max(1, len(o.passes)))
	m["cluster.ranges_retried"] = o.counterSum("pp_cluster_ranges_retried_total") / float64(max(1, len(o.passes)))
	served := map[string]float64{}
	total := 0.0
	for _, p := range o.passes {
		for k, v := range p.counters {
			if base, labels, _ := strings.Cut(k, "{"); base == "pp_cluster_cells_served_total" {
				served[labels] += v
				total += v
			}
		}
	}
	top := 0.0
	for _, v := range served {
		top = max(top, v)
	}
	m["cluster.max_worker_cell_share"] = ratio(top, total)
	return m
}
