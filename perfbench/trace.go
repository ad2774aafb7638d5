package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/dioph"
	"repro/internal/engine"
	"repro/internal/ideal"
	"repro/internal/journal"
	"repro/internal/multiset"
	"repro/internal/pred"
	"repro/internal/protocol"
	"repro/internal/pump"
	"repro/internal/reach"
	"repro/internal/realise"
	"repro/internal/saturate"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The traced run replays a workload's exact inputs in-process, one
// goroutine, through the public entry point of each layer, with a span
// around every call. Nothing inside the program is instrumented: the spans
// sit in this file, at the layer boundaries.

// spans accumulates busy time and counts per layer metric name.
type spans struct {
	total   map[string]float64   // summed seconds or counts
	samples map[string][]float64 // per-call samples (for medians)
}

func newSpans() *spans {
	return &spans{total: make(map[string]float64), samples: make(map[string][]float64)}
}

// time runs f inside a span, adding its duration in seconds to name.
func (s *spans) time(name string, f func()) float64 {
	t := time.Now()
	f()
	d := time.Since(t).Seconds()
	s.total[name] += d
	return d
}

// allocated returns the bytes f allocates on the Go heap, plus its time
// under name.
func (s *spans) allocated(name string, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.time(name, f)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// requestsOf is the request sequence a workload sends, in order: the mix,
// or the selected grid cells in grid order (timing the expansion).
func requestsOf(o *outcome, sp *spans) ([]engine.Request, error) {
	if o.mix != nil {
		reqs := make([]engine.Request, len(o.mix))
		for i, it := range o.mix {
			reqs[i] = it.Req
		}
		return reqs, nil
	}
	var cells []sweep.Cell
	var err error
	d := sp.time("sweep.expand", func() { cells, err = o.spec.Expand() })
	sp.samples["sweep.expand_ms"] = []float64{d * 1000}
	reqs := make([]engine.Request, len(cells))
	for i, c := range cells {
		reqs[i] = c.Request
	}
	return reqs, err
}

// engineReplay sends the requests through Engine.Do on a fresh engine (over
// a copy of the warm store, if any), once bare and once with spans, and
// returns both walls. The traced pass records per-kind busy time and the
// resolve+hash and inline-parse spans.
func engineReplay(b *bench, o *outcome, reqs []engine.Request, sp *spans) (untraced, traced float64, err error) {
	newEngine := func() (*engine.Engine, error) {
		eng := engine.New()
		if o.warm == "" {
			return eng, nil
		}
		d, err := b.newDir("replay-store")
		if err != nil {
			return nil, err
		}
		if err := copyDir(o.warm, d); err != nil {
			return nil, err
		}
		st, err := store.Open(d)
		if err != nil {
			return nil, err
		}
		eng.SetArtifactStore(st)
		return eng, nil
	}
	ctx := context.Background()
	eng, err := newEngine()
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	for _, req := range reqs {
		if _, err := eng.Do(ctx, req); err != nil {
			return 0, 0, err
		}
	}
	untraced = time.Since(t).Seconds()

	if eng, err = newEngine(); err != nil {
		return 0, 0, err
	}
	t = time.Now()
	for _, req := range reqs {
		var derr error
		sp.time("engine.busy_s."+string(req.Kind), func() { _, derr = eng.Do(ctx, req) })
		if derr != nil {
			return 0, 0, derr
		}
		if !req.Protocol.IsZero() {
			sp.samples["engine.resolve_hash_us"] = append(sp.samples["engine.resolve_hash_us"],
				1e6*sp.time("engine.resolve_hash", func() {
					entry, rerr := eng.Resolve(req.Protocol)
					if rerr == nil {
						_, _ = engine.Hash(entry.Protocol)
					}
				}))
		}
		if len(req.Protocol.Inline) > 0 {
			sp.samples["protocol.parse_us"] = append(sp.samples["protocol.parse_us"],
				1e6*sp.time("protocol.parse", func() { _, _ = protocol.Parse(req.Protocol.Inline) }))
		}
	}
	traced = time.Since(t).Seconds()
	sp.total["engine.computations"] = float64(eng.Computations())
	return untraced, traced, nil
}

// layerReplay calls each layer's public function for the work the engine
// would do on these requests: an artifact once per protocol (cache hits do
// no layer work), everything else per request. With a warm store the
// artifacts come from disk, so the replay restores them (stable's derived
// decompositions) instead of computing them; that untimed analysis is only
// the restore's input.
func layerReplay(reqs []engine.Request, warm bool, sp *spans) error {
	res := engine.New()
	analyses := make(map[string]*stable.Analysis)
	bases := make(map[string][]realise.TransitionMultiset)
	for _, req := range reqs {
		if req.Protocol.IsZero() {
			continue // protocol-free bounds: no layer below the engine
		}
		entry, err := res.Resolve(req.Protocol)
		if err != nil {
			return err
		}
		p := entry.Protocol
		h, err := engine.Hash(p)
		if err != nil {
			return err
		}
		a := analyses[h]
		needStable := req.Kind == engine.KindStable || req.Kind == engine.KindCertifyChain ||
			req.Kind == engine.KindCertifyLeaderless || (req.Kind == engine.KindSimulate && req.ExactOracle)
		if needStable && a == nil {
			if a, err = stableLayer(p, warm, sp); err != nil {
				return err
			}
			analyses[h] = a
		}
		basis, ok := bases[h]
		if (req.Kind == engine.KindBasis || req.Kind == engine.KindCertifyLeaderless) && !ok {
			if warm {
				basis, err = realise.Basis(p, realiseOpts)
			} else {
				sp.time("realise.basis_s", func() { basis, err = realise.Basis(p, realiseOpts) })
			}
			if err != nil {
				return err
			}
			sp.total["dioph.basis_vectors"] += float64(len(basis))
			bases[h] = basis
		}
		if err := kindLayer(req, entry.Pred, p, a, basis, sp); err != nil {
			return fmt.Errorf("%s: %w", req.Kind, err)
		}
	}
	return nil
}

// realiseOpts matches the engine's basis computation (default bounds).
var realiseOpts = dioph.Options{}

// stableLayer produces a protocol's stable-set analysis the way the
// workload's server does: the backward-coverability fixpoint plus its
// complements when cold, the derived-decomposition restore when warm.
func stableLayer(p *protocol.Protocol, warm bool, sp *spans) (*stable.Analysis, error) {
	var a *stable.Analysis
	var err error
	if warm {
		if a, err = stable.Analyze(p, stable.Options{}); err != nil {
			return nil, err
		}
		basis := [2][]multiset.Vec{a.Unstable(0).MinBasis(), a.Unstable(1).MinBasis()}
		iters := [2]int{a.Iterations(0), a.Iterations(1)}
		frontier := [2]int{a.FrontierProcessed(0), a.FrontierProcessed(1)}
		der := a.Derived()
		sp.time("ideal.restore_s", func() { a, err = stable.RestoreDerived(p, basis, iters, frontier, der) })
	} else {
		sp.total["stable.alloc_bytes"] += float64(sp.allocated("stable.analyze_s", func() {
			a, err = stable.Analyze(p, stable.Options{})
		}))
		if err == nil {
			for b := 0; b <= 1; b++ {
				u := a.Unstable(b)
				sp.total["ideal.complement_up_alloc_bytes"] += float64(sp.allocated("ideal.complement_up_s", func() {
					ideal.ComplementUp(u)
				}))
			}
		}
	}
	if err != nil {
		return nil, err
	}
	sp.total["stable.basis_elements"] += float64(len(a.Basis(0)) + len(a.Basis(1)))
	return a, nil
}

// kindLayer runs the per-request layer work of one request, mirroring the
// engine's defaults for unset sizes.
func kindLayer(req engine.Request, phi pred.Pred, p *protocol.Protocol, a *stable.Analysis, basis []realise.TransitionMultiset, sp *spans) error {
	var err error
	switch req.Kind {
	case engine.KindVerify:
		if req.Predicate != nil {
			if phi, err = req.Predicate.Build(); err != nil {
				return err
			}
		}
		minSize, maxSize := req.MinSize, req.MaxSize
		if minSize <= 0 {
			minSize = 2
		}
		if maxSize <= 0 {
			return fmt.Errorf("verify request without maxSize")
		}
		var rep *reach.Report
		sp.time("reach.verify_s", func() {
			rep, err = reach.VerifyRangeInterruptible(p, phi, minSize, maxSize, req.Limit, nil)
		})
		if err == nil {
			sp.total["reach.configs"] += float64(rep.TotalConfigs)
		}
	case engine.KindCover:
		ic := p.InitialConfig(multiset.Vec(req.Input))
		sp.time("reach.cover_s", func() {
			_, _, err = reach.MaxCoverLengthsBothInterruptible(p, ic, req.Limit, nil)
		})
	case engine.KindSimulate:
		opts := sim.Options{Seed: req.Seed, MaxSteps: req.MaxSteps, TraceEvery: req.TraceEvery}
		if req.ExactOracle {
			opts.Oracle = a
		}
		c0 := p.InitialConfig(multiset.Vec(req.Input))
		sp.time("sim.replicas_s", func() {
			if req.Runs > 1 {
				var est sim.Estimate
				est, err = sim.RunReplicas(p, c0, req.Runs, opts, 1)
				sp.total["sim.interactions"] += float64(est.TotalInteractions)
				return
			}
			var st sim.Stats
			st, err = sim.Run(p, c0, opts)
			sp.total["sim.interactions"] += float64(st.Interactions)
		})
	case engine.KindCertifyChain:
		var cert *pump.ChainCertificate
		sp.time("pump.find_s", func() { cert, err = pump.FindChain(p, pump.FindOptions{Seed: req.Seed, Analysis: a}) })
		if err == nil {
			sp.time("pump.check_s", func() { err = pump.CheckChain(p, cert, a) })
		}
	case engine.KindCertifyLeaderless:
		var cert *pump.LeaderlessCertificate
		sp.time("pump.find_s", func() {
			cert, err = pump.FindLeaderless(p, pump.FindOptions{Seed: req.Seed, Analysis: a, Basis: basis})
		})
		if err == nil {
			sp.time("pump.check_s", func() { err = pump.CheckLeaderless(p, cert, a) })
		}
	case engine.KindSaturate:
		sp.time("saturate", func() { _, err = saturate.Saturate(p) })
	}
	return err
}

// artifact is one file of an artifact store: <dir>/<kind>/<hash>.
type artifact struct{ kind, hash, path string }

func listArtifacts(dir string) ([]artifact, error) {
	var out []artifact
	kinds, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for _, k := range kinds {
		if !k.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, k.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if f.Type().IsRegular() {
				out = append(out, artifact{k.Name(), f.Name(), filepath.Join(dir, k.Name(), f.Name())})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

// storeReplay re-does the pass's store traffic against a fresh store:
// a Put (atomic, fsync'd) of every artifact the pass wrote, and a Get
// (read, CRC check) of every artifact it read from the warm store.
func storeReplay(b *bench, written, read []artifact, sp *spans) error {
	d, err := b.newDir("store-replay")
	if err != nil {
		return err
	}
	st, err := store.Open(d)
	if err != nil {
		return err
	}
	for _, a := range written {
		raw, err := os.ReadFile(a.path)
		if err != nil {
			return err
		}
		payload, err := store.Decode(raw)
		if err != nil {
			return err
		}
		sp.time("store.put_s", func() { err = st.Put(a.kind, a.hash, payload) })
		if err != nil {
			return err
		}
		sp.total["store.bytes_written"] += float64(len(raw))
	}
	rd, err := b.newDir("store-replay-read")
	if err != nil {
		return err
	}
	for _, a := range read {
		if err := os.MkdirAll(filepath.Join(rd, a.kind), 0o755); err != nil {
			return err
		}
		if err := copyFile(a.path, filepath.Join(rd, a.kind, a.hash)); err != nil {
			return err
		}
	}
	if st, err = store.Open(rd); err != nil {
		return err
	}
	for _, a := range read {
		var payload []byte
		sp.time("store.get_s", func() { payload, err = st.Get(a.kind, a.hash) })
		if err != nil || payload == nil {
			return fmt.Errorf("store replay get %s/%s: %v", a.kind, a.hash, err)
		}
		sp.total["store.bytes_read"] += float64(len(payload))
	}
	return nil
}

// journalReplay appends the pass's cell rows to a fresh sweep journal, one
// fsync'd record each, as a journaled server does before streaming a row.
func journalReplay(b *bench, spec sweep.Spec, cells []sweep.CellResult, sp *spans) error {
	d, err := b.newDir("journal-replay")
	if err != nil {
		return err
	}
	js, err := journal.Open(d)
	if err != nil {
		return err
	}
	h, err := sweep.SpecHash(spec)
	if err != nil {
		return err
	}
	j, err := js.Sweep(h)
	if err != nil {
		return err
	}
	if err := j.Start(len(cells)); err != nil {
		return err
	}
	for _, cr := range cells {
		d := sp.time("journal.append", func() { err = j.AppendCell(cr) })
		if err != nil {
			return err
		}
		sp.samples["journal.append_cell_ms"] = append(sp.samples["journal.append_cell_ms"], d*1000)
	}
	if err := j.AppendDone(); err != nil {
		return err
	}
	return j.Close()
}

// durableHitReplay times Engine.Do for every distinct stable and basis
// request on a fresh engine whose artifact store is a copy of dir, so each
// is a memory miss served from disk.
func durableHitReplay(b *bench, dir string, reqs []engine.Request, sp *spans) error {
	d, err := b.newDir("durable-replay")
	if err != nil {
		return err
	}
	if err := copyDir(dir, d); err != nil {
		return err
	}
	st, err := store.Open(d)
	if err != nil {
		return err
	}
	eng := engine.New()
	eng.SetArtifactStore(st)
	seen := make(map[string]bool)
	for _, req := range reqs {
		if req.Kind != engine.KindStable && req.Kind != engine.KindBasis {
			continue
		}
		key := string(req.Kind) + "\x00" + req.Protocol.Spec + string(req.Protocol.Inline)
		if seen[key] {
			continue
		}
		seen[key] = true
		r := engine.Request{Kind: req.Kind, Protocol: req.Protocol}
		var derr error
		ms := 1000 * sp.time("engine.durable_hit", func() { _, derr = eng.Do(context.Background(), r) })
		if derr != nil {
			return derr
		}
		sp.samples["engine.durable_hit_ms"] = append(sp.samples["engine.durable_hit_ms"], ms)
	}
	return nil
}

// discard drains and closes a response body.
func discard(resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	return io.Copy(io.Discard, resp.Body)
}
