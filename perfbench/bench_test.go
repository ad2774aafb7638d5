package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sweep"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{5, 1, 3}, 3},
		{[]float64{2.5, 9, 4, 7.25, 1, 3}, 3.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(xs,
// n=4) — the figures the acceptance check computes the spread from —
// including its extrapolation on tiny samples.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2.5, 9, 4, 7.25, 1, 3}, 2.125, 7.6875},
	} {
		q1, q3, ok := quartiles(tc.xs)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.xs, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported")
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Error("p99 reported from 999 samples: fewer than 10 lie beyond it")
	}
	got, ok := percentile(xs, 0.99)
	if !ok || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", got, ok)
	}
	if !percentileSupported(100, 0.9) || percentileSupported(99, 0.9) {
		t.Error("p90 needs exactly 100 samples")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v", v, ok)
	}
}

// TestReportedP99Count checks the p99 an analyze-mix run reports and the
// sample count stated with it.
func TestReportedP99Count(t *testing.T) {
	mk := func(n int) *outcome {
		p := pass{}
		for i := range n {
			p.replies = append(p.replies, reply{Latency: time.Duration(i+1) * time.Millisecond, Status: 200, Body: []byte(`{"kind":"bounds"}`)})
		}
		return &outcome{mix: []mixItem{{}}, passes: []pass{p}}
	}
	m := passMetrics(mk(999))
	if m["analyze.latency_samples"] != 999 || m["analyze.latency_p99_ms"] != 0 {
		t.Errorf("999 samples: count %v p99 %v; want 999 and no p99", m["analyze.latency_samples"], m["analyze.latency_p99_ms"])
	}
	m = passMetrics(mk(1000))
	if m["analyze.latency_samples"] != 1000 || math.Abs(m["analyze.latency_p99_ms"]-990) > 1e-9 {
		t.Errorf("1000 samples: count %v p99 %v; want 1000 and 990 ms", m["analyze.latency_samples"], m["analyze.latency_p99_ms"])
	}
}

// TestStealAdjustment checks that wall-clock metrics are taken back to an
// undisturbed machine by the pass's steal share, and that CPU time and
// memory are left alone.
func TestStealAdjustment(t *testing.T) {
	o := &outcome{
		fills: []timed{{2, 0.5}, {1.5, 0}, {9, 0.9}},
		passes: []pass{{setup: 0.01, wall: 4, ops: 100, cpu: 3, rss: 50,
			latMs: []float64{10, 20, 30}, steal: 0.5}},
		launches:    []float64{0.02, 0.03, 0.01},
		launchSteal: 0.5,
	}
	check := func(label string, got, want map[string]float64) {
		for name, w := range want {
			if math.Abs(got[name]-w) > 1e-9 {
				t.Errorf("%s: %s = %v, want %v", label, name, got[name], w)
			}
		}
	}
	// Fills 1, 1.5, 0.9 s undisturbed (median 1) plus the median launch,
	// 10 ms undisturbed (the pass's own set-up does not count when
	// dedicated launches were timed); whole-sweep latencies 5, 10, 15 ms;
	// 100 analyses in 2 s.
	check("adjusted", endToEndMetrics(o, true), map[string]float64{"setup_s": 1.01,
		"latency_p50_ms": 10, "throughput_per_s": 50, "server.cpu_s": 3, "server.peak_rss_mb": 50})
	check("unadjusted", endToEndMetrics(o, false), map[string]float64{"setup_s": 2.02,
		"latency_p50_ms": 20, "throughput_per_s": 25, "server.cpu_s": 3, "server.peak_rss_mb": 50})
	o.launches = nil
	check("pass set-ups", endToEndMetrics(o, true), map[string]float64{"setup_s": 1.005})
	// Analyze requests are too short to scale: only throughput moves.
	o.mix = []mixItem{{}}
	check("analyze-mix", endToEndMetrics(o, true), map[string]float64{"latency_p50_ms": 20, "throughput_per_s": 50})
}

func mixBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	items, err := genMix(seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func sweepBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	data, err := json.Marshal(genSweep(seed))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSeedDeterminism(t *testing.T) {
	if !bytes.Equal(mixBytes(t, 7), mixBytes(t, 7)) {
		t.Error("analyze-mix: equal seeds gave different request sequences")
	}
	if bytes.Equal(mixBytes(t, 7), mixBytes(t, 8)) {
		t.Error("analyze-mix: different seeds gave the same request sequence")
	}
	if !bytes.Equal(sweepBytes(t, 7), sweepBytes(t, 7)) {
		t.Error("sweep: equal seeds gave different specs")
	}
	if bytes.Equal(sweepBytes(t, 7), sweepBytes(t, 8)) {
		t.Error("sweep: different seeds gave the same spec")
	}
}

// TestMixShape pins what every seed's sequence holds: the fixed counts,
// all nine kinds, the inline share, and repeats behind their originals.
func TestMixShape(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		items, err := genMix(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != mixLen {
			t.Fatalf("seed %d: %d requests", seed, len(items))
		}
		kinds := map[engine.Kind]int{}
		heavy, inline := 0, 0
		firstAt := map[string]int{}
		for i, it := range items {
			kinds[it.Req.Kind]++
			if len(it.Req.Protocol.Inline) > 0 {
				inline++
			}
			if !it.Heavy {
				continue
			}
			heavy++
			key, _ := json.Marshal(it.Req)
			if first, seen := firstAt[string(key)]; seen {
				if first%clients != i%clients {
					t.Errorf("seed %d: repeat %d and its original %d go to different clients", seed, i, first)
				}
			} else {
				firstAt[string(key)] = i
			}
		}
		if len(kinds) != len(engine.Kinds) {
			t.Errorf("seed %d: kinds %v", seed, kinds)
		}
		cold := 0
		for _, c := range heavyCold() {
			cold += len(c)
		}
		if heavy != cold+mixRepeats || len(firstAt) != cold {
			t.Errorf("seed %d: %d heavy (%d distinct), want %d (%d)", seed, heavy, len(firstAt), cold+mixRepeats, cold)
		}
		if inline != mixInline {
			t.Errorf("seed %d: %d inline requests, want %d", seed, inline, mixInline)
		}
	}
}

// TestSelectKinds checks that the durable selection and its complement
// partition the grid without renumbering it.
func TestSelectKinds(t *testing.T) {
	spec := genSweep(3)
	all, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, invert := range []bool{false, true} {
		sel, err := selectKinds(spec, durableKinds, invert)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := sel.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if seen[c.Index] || slices.Contains(durableKinds, c.Kind) == invert {
				t.Errorf("cell %d (%s) misplaced (invert=%v)", c.Index, c.Kind, invert)
			}
			seen[c.Index] = true
			want, _ := json.Marshal(all[c.Index])
			got, _ := json.Marshal(c)
			if !bytes.Equal(got, want) {
				t.Errorf("cell %d differs from the full grid's", c.Index)
			}
		}
	}
	if len(seen) != len(all) {
		t.Errorf("selections cover %d of %d cells", len(seen), len(all))
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked in.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// predictionsFile is predictions.json: the per-workload record and the
// prediction table (layer metric → end-to-end metric → workloads).
type predictionsFile struct {
	Nproc     int `json:"nproc"`
	Workloads []struct {
		Name    string `json:"name"`
		Loop    string `json:"loop"`
		Clients int    `json:"clients"`
	} `json:"workloads"`
	Predictions []struct {
		Layer   string   `json:"layer"`
		Metrics []string `json:"metrics"`
		Moves   []string `json:"moves"`
		Mostly  []string `json:"mostly"`
		Little  []string `json:"little"`
	} `json:"predictions"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestNamesExist holds BENCHMARK.json and the prediction table to the
// metrics and workloads a run actually reports.
func TestNamesExist(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var pf predictionsFile
	readJSON(t, "predictions.json", &pf)

	workloadNames := map[string]bool{}
	for _, w := range workloads {
		workloadNames[w.name] = true
	}
	e2eUnit := map[string]string{}
	for _, d := range endToEnd {
		e2eUnit[d.name] = d.unit
	}
	layerUnit := map[string]string{}
	for _, d := range perLayer() {
		layerUnit[d.name] = d.unit
	}

	if len(bf.Workloads) != len(workloads) || len(pf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, predictions.json %d, perfbench runs %d",
			len(bf.Workloads), len(pf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if !workloadNames[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	for _, w := range pf.Workloads {
		want := 1 // each sweep workload posts one sweep at a time
		if w.Name == "analyze-mix" {
			want = clients
		}
		if !workloadNames[w.Name] || w.Loop != "closed" || w.Clients != want {
			t.Errorf("predictions.json workload %+v does not match the workloads table", w)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, runs report %d", len(bf.EndToEnd), len(endToEnd))
	}
	for _, m := range bf.EndToEnd {
		if u, ok := e2eUnit[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s [%s] is not reported (unit %q)", m.Name, m.Unit, u)
		}
	}
	if len(bf.PerLayer) != len(layerUnit) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, traced runs report %d", len(bf.PerLayer), len(layerUnit))
	}
	for _, m := range bf.PerLayer {
		if u, ok := layerUnit[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s [%s] is not reported (unit %q)", m.Name, m.Unit, u)
		}
	}
	for _, p := range pf.Predictions {
		for _, m := range p.Metrics {
			if _, ok := layerUnit[m]; !ok {
				t.Errorf("prediction %s: layer metric %s is not reported", p.Layer, m)
			}
		}
		for _, m := range p.Moves {
			if _, ok := e2eUnit[m]; !ok {
				t.Errorf("prediction %s: end-to-end metric %s is not reported", p.Layer, m)
			}
		}
		for _, w := range append(append([]string(nil), p.Mostly...), p.Little...) {
			if !workloadNames[w] {
				t.Errorf("prediction %s: workload %s is not run", p.Layer, w)
			}
		}
	}
}

// TestRefCheck exercises the sweep correctness gate: a matching stream
// passes, and a changed, missing or duplicated row is counted.
func TestRefCheck(t *testing.T) {
	param := int64(3)
	cells := []sweep.CellResult{
		{Index: 0, Protocol: "flock:3", Param: &param, Kind: engine.KindStable, OK: true, ElapsedMillis: 4,
			Result: &engine.Result{Kind: engine.KindStable, Stable: &engine.StableResult{Basis0: 2}}},
		{Index: 1, Protocol: "flock:3", Param: &param, Kind: engine.KindBasis, OK: true, ElapsedMillis: 1,
			Result: &engine.Result{Kind: engine.KindBasis, Basis: &engine.BasisResult{Size: 3}}},
	}
	ref, err := refOf("t", cells, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	col := sweep.NewCollector("t", 2, 2, true)
	for _, c := range cells {
		col.Add(c)
	}
	summary := col.Finish(time.Second)
	timed := append([]sweep.CellResult(nil), cells...)
	timed[0].ElapsedMillis, timed[0].CacheHit = 99, true
	if n := ref.check(sweepReply{Cells: timed, Summary: summary}); n != 0 {
		t.Errorf("matching stream counted %d wrong", n)
	}
	wrong := append([]sweep.CellResult(nil), cells...)
	wrong[1].Result = &engine.Result{Kind: engine.KindBasis, Basis: &engine.BasisResult{Size: 4}}
	if n := ref.check(sweepReply{Cells: wrong, Summary: summary}); n != 1 {
		t.Errorf("one changed row counted %d wrong", n)
	}
	if n := ref.check(sweepReply{Cells: cells[:1], Summary: summary}); n != 1 {
		t.Errorf("one missing row counted %d wrong", n)
	}
	if n := ref.check(sweepReply{Cells: []sweep.CellResult{cells[0], cells[0], cells[1]}, Summary: summary}); n != 1 {
		t.Errorf("one duplicated row counted %d wrong", n)
	}
}
