package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/sweep"
)

// workload describes one benchmark workload; main.go resolves --workload
// against this table and the names must match BENCHMARK.json.
type workload struct {
	name string
	run  func(b *bench) (*outcome, error)
}

var workloads = []workload{
	{"analyze-mix", runAnalyzeMix},
	{"sweep-cold", runSweepCold},
	{"sweep-durable", runSweepDurable},
	{"sweep-cluster", runSweepCluster},
}

// bench is one invocation: its settings and its private scratch directory.
type bench struct {
	ppserve string
	dir     string
	seed    uint64
	seconds float64
	trace   bool
	dirs    int
}

// newDir makes a fresh directory under the run's scratch directory.
func (b *bench) newDir(prefix string) (string, error) {
	b.dirs++
	d := filepath.Join(b.dir, fmt.Sprintf("%s-%d", prefix, b.dirs))
	return d, os.MkdirAll(d, 0o755)
}

// pass is one measured unit of a workload: a fresh set of ppserve
// processes, one request sequence (analyze-mix) or one sweep, then
// shutdown.
type pass struct {
	setup float64 // s: launch (plus per-pass store copy) to ready
	wall  float64 // s: the request loop, or the sweep's POST to summary
	cpu   float64 // s: user+sys of the pass's ppserve processes
	rss   float64 // MB: their largest peak resident set
	// latMs are the client-side latencies of the pass's requests.
	latMs []float64
	// ops counts the analyses completed: analyze replies or sweep cells.
	ops, attempted, failed int
	// counters sums every process's /metrics samples at the end of the
	// pass; fresh processes make them the pass's deltas.
	counters map[string]float64
	replies  []reply     // analyze-mix
	sweep    *sweepReply // sweep workloads
	// dir is the pass's scratch directory; the loop keeps only the last
	// pass's, for the traced replay.
	dir string
	// artDir is the artifact directory the pass's server read (the
	// coordinator's in a cluster); writeDirs are those it wrote.
	artDir    string
	writeDirs []string
	// fetchMs are timed GET /v1/artifacts calls (traced runs only).
	fetchMs []float64
	// steal is the host steal share during the pass (see stealMeter).
	steal float64
}

// outcome is everything one run measured.
type outcome struct {
	passes []pass
	// fills are the timed warm-store fills folded into setup_s (none for
	// workloads without a warm store).
	fills []timed
	// launches are the dedicated launch-to-ready samples of workloads
	// whose passes are too long to yield many set-ups; when present they
	// alone make setup_s, so its population does not depend on how many
	// passes fit in the run.
	launches []float64
	// launchSteal is the host steal share over those launches, which are
	// too short to meter one by one.
	launchSteal float64
	// For the traced replay: the workload's exact inputs.
	mix  []mixItem
	spec sweep.Spec // the spec the servers received
	warm string     // warm artifact dir (durable, cluster)
	// steal is the host steal share over the whole measuring loop (see
	// stealMeter).
	steal float64
}

// timed is one wall-clock measurement and the host steal share during it.
type timed struct{ secs, steal float64 }

// stealMeter starts measuring host steal: the returned function reports
// the share of the CPU time this machine's processors wanted since the
// call that the hypervisor gave to other guests instead (/proc/stat
// "steal" over the non-idle ticks; 0 where /proc/stat is unavailable). A
// stolen tick stretches every wall-clock time measured across it, while
// the processes' own CPU time does not count it.
func stealMeter() func() float64 {
	s0, b0 := hostTicks()
	return func() float64 {
		s1, b1 := hostTicks()
		return ratio(s1-s0, b1-b0)
	}
}

// hostTicks reads the machine-wide stolen and non-idle CPU ticks.
func hostTicks() (steal, busy float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return steal, busy
}

// launchSamples is how many dedicated launches a run with a launch
// function times for setup_s.
const launchSamples = 15

// loop runs passes until the run's measuring time is used up (at least
// one). Workloads whose passes last seconds pass launch, and setup_s
// comes from launchSamples launch-only cycles after the loop; the others
// (dozens of short passes) take it from the passes' own set-ups.
func (b *bench) loop(o *outcome, onePass func() (pass, error), launch func() (float64, error)) error {
	start := time.Now()
	runSteal := stealMeter()
	defer func() { o.steal = runSteal() }()
	for len(o.passes) == 0 || time.Since(start).Seconds() < b.seconds {
		passSteal := stealMeter()
		p, err := onePass()
		if err != nil {
			return err
		}
		p.steal = passSteal()
		if n := len(o.passes); n > 0 {
			if err := os.RemoveAll(o.passes[n-1].dir); err != nil {
				return err
			}
		}
		o.passes = append(o.passes, p)
		logf("pass %d: wall %.3fs setup %.4fs cpu %.3fs rss %.1fMB p50 %.4fms steal %.3f failed %d/%d",
			len(o.passes), p.wall, p.setup, p.cpu, p.rss, median(p.latMs), p.steal, p.failed, p.attempted)
	}
	launchSteal := stealMeter()
	for launch != nil && len(o.launches) < launchSamples {
		s, err := launch()
		if err != nil {
			return err
		}
		o.launches = append(o.launches, s)
	}
	o.launchSteal = launchSteal()
	return nil
}

// launchOnly times one start-to-ready of a single server and stops it.
func (b *bench) launchOnly(args ...string) (float64, error) {
	d, err := b.newDir("launch")
	if err != nil {
		return 0, err
	}
	t := time.Now()
	srv, err := startServer(b.ppserve, filepath.Join(d, "ppserve.log"), args...)
	if err != nil {
		return 0, err
	}
	s := time.Since(t).Seconds()
	srv.stop()
	return s, os.RemoveAll(d)
}

// finish scrapes and stops the pass's servers (workers before their
// coordinator) and folds their counters and usage into p.
func finish(p *pass, servers []*server) error {
	p.counters = make(map[string]float64)
	var firstErr error
	for _, s := range servers {
		samples, err := scrape(s.URL)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for k, v := range samples {
			p.counters[k] += v
		}
	}
	for i := len(servers) - 1; i >= 0; i-- {
		servers[i].stop()
		p.cpu += servers[i].cpuSeconds()
		p.rss = max(p.rss, servers[i].peakRSSMB())
	}
	return firstErr
}

func runAnalyzeMix(b *bench) (*outcome, error) {
	items, err := genMix(b.seed)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(items))
	for i, it := range items {
		if bodies[i], err = json.Marshal(it.Req); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	ref, err := referenceMix(bodies)
	if err != nil {
		return nil, err
	}
	logf("analyze-mix: in-process reference of %d distinct requests in %.2fs", len(ref), time.Since(t).Seconds())
	o := &outcome{mix: items}
	onePass := func() (pass, error) {
		d, err := b.newDir("pass")
		if err != nil {
			return pass{}, err
		}
		t := time.Now()
		srv, err := startServer(b.ppserve, filepath.Join(d, "ppserve.log"))
		if err != nil {
			return pass{}, err
		}
		p := pass{setup: time.Since(t).Seconds()}
		var wall time.Duration
		p.replies, wall = mixPass(srv.URL, bodies)
		p.wall = wall.Seconds()
		if err := finish(&p, []*server{srv}); err != nil {
			return p, err
		}
		p.attempted = len(bodies)
		for i, rp := range p.replies {
			p.latMs = append(p.latMs, float64(rp.Latency)/float64(time.Millisecond))
			if checkReply(rp, ref[string(bodies[i])]) {
				p.ops++
			} else {
				p.failed++
				logf("analyze-mix: request %d (%s) answered %d: %.200s", i, items[i].Req.Kind, rp.Status, rp.Body)
			}
		}
		return p, os.RemoveAll(d)
	}
	return o, b.loop(o, onePass, func() (float64, error) { return b.launchOnly() })
}

// sweepSetup prepares one sweep workload: the grid, its in-process
// reference and, when warm, a warm artifact store filled from the grid's
// artifact-producing cells.
func sweepSetup(b *bench, warm bool) (o *outcome, full, durable sweepRef, err error) {
	spec := genSweep(b.seed)
	o = &outcome{spec: spec}
	storeDir := ""
	if warm {
		if storeDir, err = b.newDir("warm"); err != nil {
			return nil, full, durable, err
		}
		o.warm = storeDir
	}
	t := time.Now()
	steal := stealMeter()
	full, durable, fill, err := referenceSweep(spec, storeDir)
	if err != nil {
		return nil, full, durable, err
	}
	logf("%s: in-process reference (%d cells) in %.2fs, durable part %.2fs",
		spec.Name, len(full.rows), time.Since(t).Seconds(), fill.Seconds())
	if !warm {
		return o, full, durable, nil
	}
	// The fill is part of setup_s; like every set-up it is timed several
	// times and reported as a median.
	o.fills = []timed{{fill.Seconds(), steal()}}
	for len(o.fills) < warmFills {
		d, err := b.newDir("fill")
		if err != nil {
			return nil, full, durable, err
		}
		steal := stealMeter()
		f, err := fillStore(spec, d)
		if err != nil {
			return nil, full, durable, err
		}
		o.fills = append(o.fills, timed{f.Seconds(), steal()})
		if err := os.RemoveAll(d); err != nil {
			return nil, full, durable, err
		}
	}
	logf("warm-store fills (s, steal): %.3v", o.fills)
	return o, full, durable, nil
}

// warmFills is how many times a run fills a warm store to time it.
const warmFills = 3

// sweepPassOf turns one streamed sweep into the pass's samples.
func sweepPassOf(p *pass, sr sweepReply, ref sweepRef) {
	p.sweep = &sr
	p.wall = sr.Wall.Seconds()
	p.latMs = []float64{float64(sr.Wall) / float64(time.Millisecond)}
	p.attempted = len(ref.rows)
	if sr.Err != nil {
		logf("sweep failed: %v", sr.Err)
		p.failed = p.attempted
		return
	}
	p.failed = ref.check(sr)
	p.ops = len(sr.Cells) - min(p.failed, len(sr.Cells))
	if p.failed > 0 {
		logf("sweep: %d of %d cells differ from the in-process reference", p.failed, p.attempted)
	}
}

// timeFetches times GET /v1/artifacts for every artifact in dir against
// url (traced runs only).
func (b *bench) timeFetches(p *pass, url, dir string) error {
	if !b.trace {
		return nil
	}
	arts, err := listArtifacts(dir)
	if err != nil {
		return err
	}
	for _, a := range arts {
		t := time.Now()
		resp, err := httpClient.Get(url + "/v1/artifacts/" + a.kind + "/" + a.hash)
		if err != nil {
			return err
		}
		_, _ = discard(resp)
		if resp.StatusCode != 200 {
			return fmt.Errorf("GET /v1/artifacts/%s/%s: %s", a.kind, a.hash, resp.Status)
		}
		p.fetchMs = append(p.fetchMs, float64(time.Since(t))/float64(time.Millisecond))
	}
	return nil
}

// singleServerSweep is one pass of sweep-cold or sweep-durable: a fresh
// ppserve over an artifact dir (empty, or a copy of warm) and an empty
// journal receives spec.
func (b *bench) singleServerSweep(spec sweep.Spec, ref sweepRef, warm string) (pass, error) {
	d, err := b.newDir("pass")
	if err != nil {
		return pass{}, err
	}
	art, jr := filepath.Join(d, "art"), filepath.Join(d, "journal")
	t := time.Now()
	if warm != "" {
		if err := copyDir(warm, art); err != nil {
			return pass{}, err
		}
	}
	srv, err := startServer(b.ppserve, filepath.Join(d, "ppserve.log"), "-artifact-dir", art, "-journal-dir", jr)
	if err != nil {
		return pass{}, err
	}
	p := pass{setup: time.Since(t).Seconds(), dir: d, artDir: art, writeDirs: []string{art}}
	sr := postSweep(context.Background(), srv.URL, spec)
	ferr := b.timeFetches(&p, srv.URL, art)
	if err := finish(&p, []*server{srv}); err != nil {
		return p, err
	}
	sweepPassOf(&p, sr, ref)
	return p, ferr
}

func runSweepCold(b *bench) (*outcome, error) {
	o, full, _, err := sweepSetup(b, false)
	if err != nil {
		return nil, err
	}
	onePass := func() (pass, error) { return b.singleServerSweep(o.spec, full, "") }
	launch := func() (float64, error) {
		d, err := b.newDir("launch-dirs")
		if err != nil {
			return 0, err
		}
		return b.launchOnly("-artifact-dir", filepath.Join(d, "art"), "-journal-dir", filepath.Join(d, "journal"))
	}
	return o, b.loop(o, onePass, launch)
}

func runSweepDurable(b *bench) (*outcome, error) {
	o, _, durable, err := sweepSetup(b, true)
	if err != nil {
		return nil, err
	}
	if o.spec, err = selectKinds(o.spec, durableKinds, false); err != nil {
		return nil, err
	}
	onePass := func() (pass, error) { return b.singleServerSweep(o.spec, durable, o.warm) }
	return o, b.loop(o, onePass, nil)
}

func runSweepCluster(b *bench) (*outcome, error) {
	o, full, _, err := sweepSetup(b, true)
	if err != nil {
		return nil, err
	}
	onePass := func() (pass, error) {
		d, err := b.newDir("pass")
		if err != nil {
			return pass{}, err
		}
		coordArt := filepath.Join(d, "coord-art")
		t := time.Now()
		if err := copyDir(o.warm, coordArt); err != nil {
			return pass{}, err
		}
		coord, err := startServer(b.ppserve, filepath.Join(d, "coord.log"), "-coordinator", "-artifact-dir", coordArt)
		if err != nil {
			return pass{}, err
		}
		servers := []*server{coord}
		for _, id := range []string{"w1", "w2"} {
			w, err := startServer(b.ppserve, filepath.Join(d, id+".log"), "-worker", "-join", coord.URL,
				"-worker-id", id, "-slots", "1", "-artifact-dir", filepath.Join(d, id+"-art"))
			if err != nil {
				return pass{}, err
			}
			servers = append(servers, w)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		err = waitMembers(ctx, coord.URL, 2)
		cancel()
		if err != nil {
			return pass{}, err
		}
		p := pass{setup: time.Since(t).Seconds(), dir: d, artDir: coordArt,
			writeDirs: []string{filepath.Join(d, "w1-art"), filepath.Join(d, "w2-art")}}
		sr := postSweep(context.Background(), coord.URL, o.spec)
		ferr := b.timeFetches(&p, coord.URL, coordArt)
		if err := finish(&p, servers); err != nil {
			return p, err
		}
		sweepPassOf(&p, sr, full)
		return p, ferr
	}
	return o, b.loop(o, onePass, nil)
}
