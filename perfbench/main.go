// Command perfbench is the repository's end-to-end benchmark. It drives
// real ppserve processes over loopback HTTP with seeded workloads, checks
// every answer against an in-process run of the same inputs, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced in-process replay) as one JSON object on its last stdout line.
//
// Run it from the repository root through run.sh, which builds ppserve
// and this program first:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and the prediction table are described in
// perfbench/README.md and perfbench/predictions.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// result is the JSON object of the last stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name (analyze-mix, sweep-cold, sweep-durable, sweep-cluster), or all to run each in turn")
		seed    = flag.Uint64("seed", 1, "workload seed: equal seeds give byte-identical inputs")
		seconds = flag.Float64("seconds", 20, "measuring time of the run")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
		ppserve = flag.String("ppserve", "", "path of the ppserve binary to drive")
		workdir = flag.String("workdir", "", "directory for the run's scratch files (removed at exit)")
	)
	flag.Parse()
	var todo []workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			todo = append(todo, w)
		}
	}
	switch {
	case len(todo) == 0:
		logf("unknown --workload %q", *name)
		return 2
	case *ppserve == "" || *workdir == "":
		logf("--ppserve and --workdir are required (run through perfbench/run.sh)")
		return 2
	case *trace != 0 && *trace != 1:
		logf("--trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		logf("--seconds must be positive")
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	// Every exit path reaps the servers and removes the scratch directory,
	// an interrupt included.
	cleanup := func() {
		reapAll()
		_ = os.RemoveAll(dir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logf("%v: stopping servers", s)
		cleanup()
		os.Exit(130)
	}()

	code := 0
	for _, w := range todo {
		wdir, err := os.MkdirTemp(dir, w.name+"-")
		if err != nil {
			logf("%v", err)
			return 1
		}
		b := &bench{ppserve: *ppserve, dir: wdir, seed: *seed, seconds: *seconds, trace: *trace == 1}
		if c := runOne(w, b); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its report and, last, its JSON
// result line; it returns the exit code (non-zero on any wrong answer).
func runOne(w workload, b *bench) int {
	start := time.Now()
	o, err := w.run(b)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	res := result{Metrics: make(map[string]value)}
	for _, p := range o.passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	defs := endToEnd
	vals := endToEndMetrics(o, true)
	if b.trace {
		defs = perLayer()
		if vals, err = traceMetrics(b, o); err != nil {
			logf("%s: traced replay: %v", w.name, err)
			return 1
		}
	}
	report(w.name, b, o, res)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			logf("internal error: metric %s not computed", d.name)
			return 1
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	logf("%s done in %.1fs", w.name, time.Since(start).Seconds())
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable lines: every end-to-end metric with
// its unit, the quartiles of its per-pass samples (the run's own
// stability) and its value before the host-steal adjustment, the failure
// ratio, the tail percentile with its sample count, the property shares
// later cache, store and routing claims cite, and the steal share itself.
func report(name string, b *bench, o *outcome, res result) {
	fmt.Printf("workload %s seed %d passes %d (nproc %d)\n", name, b.seed, len(o.passes), runtime.NumCPU())
	e2e, raw := endToEndMetrics(o, true), endToEndMetrics(o, false)
	series := passSeries(o, true)
	for _, d := range endToEnd {
		q1, q3, _ := quartiles(series[d.name])
		fmt.Printf("  %-24s %14.4f %-5s (passes q1 %.4f, q3 %.4f, n %d; unadjusted %.4f)\n",
			d.name, e2e[d.name], d.unit, q1, q3, len(series[d.name]), raw[d.name])
	}
	fmt.Printf("  %-24s %14.4f ratio (%d of %d analyses)\n", "failed_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	pm := passMetrics(o)
	if o.mix != nil {
		if n := int(pm["analyze.latency_samples"]); percentileSupported(n, 0.99) {
			fmt.Printf("  %-24s %14.4f ms (%d samples)\n", "latency_p99_ms", pm["analyze.latency_p99_ms"], n)
		} else {
			fmt.Printf("  %-24s %14s    (%d samples: too few for p99)\n", "latency_p99_ms", "-", n)
		}
	}
	shares := []string{"share.cache_hit", "share.store_hit", "share.peer_hit"}
	for _, s := range shares {
		fmt.Printf("  %-24s %14.4f ratio\n", s, pm[s])
	}
	fmt.Printf("  %-24s %14.4f ratio (host CPU time stolen while measuring)\n", "host.steal", o.steal)
}

// traceMetrics runs the traced in-process replay of a workload's inputs and
// combines its spans with the numbers read off the untraced passes.
func traceMetrics(b *bench, o *outcome) (map[string]float64, error) {
	m := passMetrics(o)
	sp := newSpans()
	reqs, err := requestsOf(o, sp)
	if err != nil {
		return nil, err
	}
	untraced, traced, err := engineReplay(b, o, reqs, sp)
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	if err := layerReplay(reqs, o.warm != "", sp); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	last := o.passes[len(o.passes)-1]
	if last.sweep != nil {
		var warm []artifact
		if o.warm != "" {
			if warm, err = listArtifacts(o.warm); err != nil {
				return nil, err
			}
		}
		written, err := newArtifacts(last.writeDirs, warm)
		if err != nil {
			return nil, err
		}
		if err := storeReplay(b, written, warm, sp); err != nil {
			return nil, fmt.Errorf("store replay: %w", err)
		}
		if err := journalReplay(b, o.spec, last.sweep.Cells, sp); err != nil {
			return nil, fmt.Errorf("journal replay: %w", err)
		}
		durable := o.warm
		if durable == "" {
			durable = last.artDir
		}
		if err := durableHitReplay(b, durable, reqs, sp); err != nil {
			return nil, fmt.Errorf("durable-hit replay: %w", err)
		}
	}

	for _, d := range perLayer() {
		if v, ok := sp.total[d.name]; ok {
			m[d.name] = v
		}
		if xs, ok := sp.samples[d.name]; ok {
			m[d.name] = median(xs)
		}
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // the workload never reached this layer
		}
	}
	m["sim.interactions_per_s"] = ratio(sp.total["sim.interactions"], sp.total["sim.replicas_s"])
	var walls []float64
	for _, p := range o.passes {
		walls = append(walls, p.wall)
	}
	m["trace.http_pass_s"] = median(walls)
	m["trace.untraced_replay_s"] = untraced
	m["trace.traced_replay_s"] = traced
	busy := 0.0
	for _, l := range busyLayers {
		busy += sp.total[l]
	}
	m["trace.layer_coverage"] = ratio(busy, serverAnalysisSeconds(o))
	logf("traced replay: layer busy %.3fs against %.3fs of server-side analysis time per pass", busy, serverAnalysisSeconds(o))
	return m, nil
}

// serverAnalysisSeconds is the server-side time of one pass's analyses
// (replies' or cells' elapsedMillis), averaged over passes.
func serverAnalysisSeconds(o *outcome) float64 {
	total := 0.0
	for _, p := range o.passes {
		for _, rp := range p.replies {
			if res := decodeReply(rp); res != nil {
				total += res.ElapsedMillis / 1000
			}
		}
		if p.sweep != nil {
			for _, cr := range p.sweep.Cells {
				total += cr.ElapsedMillis / 1000
			}
		}
	}
	return total / float64(len(o.passes))
}

// newArtifacts lists the artifacts under dirs that are not in the warm
// store (by kind and hash): what the pass computed and wrote.
func newArtifacts(dirs []string, warm []artifact) ([]artifact, error) {
	have := make(map[string]bool, len(warm))
	for _, a := range warm {
		have[a.kind+"/"+a.hash] = true
	}
	var out []artifact
	for _, d := range dirs {
		arts, err := listArtifacts(d)
		if err != nil {
			return nil, err
		}
		for _, a := range arts {
			if !have[a.kind+"/"+a.hash] {
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}
