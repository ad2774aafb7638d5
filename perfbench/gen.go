package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/sweep"
)

// rng derives an independent deterministic stream per (seed, purpose), so
// adding draws to one generator never shifts another's inputs.
func rng(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// between draws uniformly from [lo, hi].
func between(r *rand.Rand, lo, hi int64) int64 { return lo + r.Int64N(hi-lo+1) }

// mixItem is one /v1/analyze request of the analyze-mix sequence.
type mixItem struct {
	Req engine.Request
	// Heavy marks the cold-analysis tail (and its cache-hit repeats).
	Heavy bool
}

// Shape of one analyze-mix pass. The counts and the cold tail are fixed;
// the cheap requests' parameters and order, the repeat picks and positions
// and the inline renamings are seeded, so every seed
// asks for the same amount of work: the figures of different seeds are
// comparable, and the spread across seeds measures the system, not the
// draw.
const (
	mixLen     = 1000 // requests per pass: enough for a p99 with 10 beyond it
	mixInline  = 100  // cheap requests sent as state-renamed inline JSON
	mixRepeats = 19   // heavy requests repeating an earlier heavy artifact
	// coldSpan is the share of a client's requests the cold tail is spread
	// over, leaving room behind it for the repeats.
	coldSpan = mixLen / clients * 6 / 10
)

// cheapQuota is the per-kind request count of the cheap 95%: each is at
// most a few milliseconds here, so the median measures the fixed
// per-request cost (HTTP, JSON, resolve/parse, hashing, admission).
var cheapQuota = []struct {
	kind engine.Kind
	n    int
}{
	{engine.KindSimulate, 200},
	{engine.KindVerify, 150},
	{engine.KindStable, 120},
	{engine.KindCover, 120},
	{engine.KindBounds, 100},
	{engine.KindSaturate, 80},
	{engine.KindCertifyChain, 64},
	{engine.KindCertifyLeaderless, 64},
	{engine.KindBasis, 64},
}

// heavyCold is the cold tail, per client: every seed sends all of these
// once, each client its own list in this order. The members take
// 0.02–0.45 s each in-process on a 2-CPU host; heavier ones would make a
// pass's wall time hinge on which two happen to overlap. The split is the
// longest-first greedy partition of those measured costs (1.74 s against
// 1.75 s), so neither client idles long at the end of a pass whatever the
// seed.
func heavyCold() [clients][]engine.Request {
	st := func(spec string) engine.Request { return specReq(engine.KindStable, spec) }
	ba := func(spec string) engine.Request { return specReq(engine.KindBasis, spec) }
	ve := func(maxSize int64) engine.Request {
		r := specReq(engine.KindVerify, "flock:6")
		r.MaxSize = maxSize
		return r
	}
	return [clients][]engine.Request{
		{ve(31), ve(29), st("binary:68"), st("binary:66"), st("binary:64"), ba("flock:7"), st("flock:20"), ve(26), st("binary:58")},
		{ve(30), ba("binary:40"), st("flock:22"), ve(28), st("flock:21"), ve(27), st("binary:62"), st("binary:60"), st("binary:56"), ba("flock:6")},
	}
}

func specReq(kind engine.Kind, spec string) engine.Request {
	return engine.Request{Kind: kind, Protocol: engine.ProtocolRef{Spec: spec}}
}

// threshold picks a small threshold protocol: flock:k (k states) or
// binary:k (logarithmically many).
func threshold(r *rand.Rand, flockMax, binaryMax int64) (spec string, eta int64) {
	if r.IntN(2) == 0 {
		eta = between(r, 3, flockMax)
		return fmt.Sprintf("flock:%d", eta), eta
	}
	eta = between(r, 5, binaryMax)
	return fmt.Sprintf("binary:%d", eta), eta
}

// cheapReq draws one cheap request of the given kind.
func cheapReq(r *rand.Rand, kind engine.Kind) engine.Request {
	switch kind {
	case engine.KindSimulate:
		spec, eta := threshold(r, 8, 16)
		req := specReq(kind, spec)
		req.Input = []int64{between(r, max(2, eta-3), 30)}
		req.Seed = r.Uint64N(1 << 32)
		if r.IntN(4) == 0 {
			req.Runs = 4
		}
		return req
	case engine.KindVerify:
		if r.IntN(6) == 0 {
			req := specReq(kind, "majority")
			req.MaxSize = between(r, 5, 9)
			return req
		}
		spec, eta := threshold(r, 6, 16)
		req := specReq(kind, spec)
		req.MaxSize = min(eta+between(r, 2, 6), 14)
		return req
	case engine.KindStable:
		if r.IntN(10) == 0 {
			return specReq(kind, "majority")
		}
		spec, _ := threshold(r, 12, 24)
		return specReq(kind, spec)
	case engine.KindCover:
		if r.IntN(6) == 0 {
			req := specReq(kind, "majority")
			req.Input = []int64{between(r, 2, 8), between(r, 2, 8)}
			return req
		}
		spec, _ := threshold(r, 8, 12)
		req := specReq(kind, spec)
		req.Input = []int64{between(r, 10, 30)}
		return req
	case engine.KindBounds:
		if r.IntN(2) == 0 {
			return engine.Request{Kind: kind, States: between(r, 2, 8)}
		}
		spec, _ := threshold(r, 8, 16)
		return specReq(kind, spec)
	case engine.KindSaturate:
		spec, eta := threshold(r, 8, 12)
		if eta&(eta-1) == 0 && spec[0] == 'b' {
			// Lemma 5.4's construction has no witness when η is a power
			// of two in the binary protocol (its top state is not
			// coverable); the request would fail by design.
			spec = fmt.Sprintf("binary:%d", eta+1)
		}
		return specReq(kind, spec)
	case engine.KindCertifyChain, engine.KindCertifyLeaderless:
		req := specReq(kind, fmt.Sprintf("flock:%d", between(r, 3, 6)))
		req.Seed = r.Uint64N(1 << 32)
		return req
	case engine.KindBasis:
		if r.IntN(2) == 0 {
			return specReq(kind, fmt.Sprintf("flock:%d", between(r, 3, 5)))
		}
		return specReq(kind, fmt.Sprintf("binary:%d", between(r, 5, 10)))
	}
	panic("perfbench: no cheap generator for kind " + string(kind))
}

// inlineRenamed rewrites a registry-spec request into the equivalent inline
// JSON protocol with every state renamed by a seeded tag, so its content
// hash (and artifact-cache key) is fresh while its analyses stay cheap. A
// verify request gets the registry protocol's predicate made explicit,
// because inline protocols carry none.
func inlineRenamed(r *rand.Rand, req engine.Request) (engine.Request, error) {
	entry, err := protocols.FromName(req.Protocol.Spec)
	if err != nil {
		return req, err
	}
	spec := entry.Protocol.ToSpec()
	tag := fmt.Sprintf("_%06x", r.Uint32N(1<<24))
	rename := func(s string) string { return s + tag }
	for i := range spec.States {
		spec.States[i].Name = rename(spec.States[i].Name)
	}
	for i, t := range spec.Transitions {
		spec.Transitions[i] = [4]string{rename(t[0]), rename(t[1]), rename(t[2]), rename(t[3])}
	}
	for x, q := range spec.Inputs {
		spec.Inputs[x] = rename(q)
	}
	if len(spec.Leaders) > 0 {
		leaders := make(map[string]int64, len(spec.Leaders))
		for q, n := range spec.Leaders {
			leaders[rename(q)] = n
		}
		spec.Leaders = leaders
	}
	spec.Name += tag
	data, err := json.Marshal(spec)
	if err != nil {
		return req, err
	}
	if req.Kind == engine.KindVerify {
		ps, err := predicateOf(req.Protocol.Spec)
		if err != nil {
			return req, err
		}
		req.Predicate = ps
	}
	req.Protocol = engine.ProtocolRef{Inline: data}
	return req, nil
}

// predicateOf states the predicate of the registry protocols the mix sends
// inline: flock:η and binary:η both compute x ≥ η.
func predicateOf(spec string) (*engine.PredicateSpec, error) {
	var eta int64
	for _, f := range []string{"flock:%d", "binary:%d"} {
		if n, _ := fmt.Sscanf(spec, f, &eta); n == 1 {
			return &engine.PredicateSpec{Kind: "counting", Threshold: eta}, nil
		}
	}
	return nil, fmt.Errorf("perfbench: no predicate known for %q", spec)
}

// genMix builds the analyze-mix request sequence of a seed: mixLen
// requests, 95% cheap over all nine kinds, a cold heavy tail sent once
// each, and mixRepeats repeats of earlier heavy artifacts; about 10% of
// the requests are inline JSON protocols. Request i belongs to client
// i mod clients, whose closed loop sends its requests in order, so a
// repeat always follows its original on the same client and is a
// completed-artifact hit, never a wait on an in-flight computation.
func genMix(seed uint64) ([]mixItem, error) {
	r := rng(seed, "analyze-mix")
	var cheap []engine.Request
	for _, q := range cheapQuota {
		for range q.n {
			cheap = append(cheap, cheapReq(r, q.kind))
		}
	}
	r.Shuffle(len(cheap), func(i, j int) { cheap[i], cheap[j] = cheap[j], cheap[i] })
	// Inline renaming goes to registry requests only (bounds with bare
	// state counts has no protocol to rename).
	var renamable []int
	for i, req := range cheap {
		if req.Protocol.Spec != "" && req.Protocol.Spec != "majority" {
			renamable = append(renamable, i)
		}
	}
	r.Shuffle(len(renamable), func(i, j int) { renamable[i], renamable[j] = renamable[j], renamable[i] })
	for _, i := range renamable[:mixInline] {
		req, err := inlineRenamed(r, cheap[i])
		if err != nil {
			return nil, err
		}
		cheap[i] = req
	}

	const per = mixLen / clients
	cheapPer := len(cheap) / clients
	out := make([]mixItem, mixLen)
	repeats := 0
	for c, cold := range heavyCold() {
		seq := make([]*mixItem, per)
		coldAt := make([]int, len(cold))
		var artifacts []int // the repeatable ones: stable and basis
		for i, req := range cold {
			// The cold tail keeps one schedule for every seed, evenly spaced:
			// which heavy analyses overlap decides a pass's wall time and
			// peak memory, and that should not vary with the seed.
			pos := i * coldSpan / len(cold)
			seq[pos] = &mixItem{Req: req, Heavy: true}
			coldAt[i] = pos
			if req.Kind == engine.KindStable || req.Kind == engine.KindBasis {
				artifacts = append(artifacts, i)
			}
		}
		n := per - len(cold) - cheapPer
		for range n {
			o := artifacts[r.IntN(len(artifacts))]
			lo := coldAt[o] + 1
			pos := lo + r.IntN(per-lo)
			for seq[pos] != nil {
				pos = lo + (pos-lo+1)%(per-lo)
			}
			seq[pos] = &mixItem{Req: cold[o], Heavy: true}
		}
		repeats += n
		next := c * cheapPer
		for j, it := range seq {
			if it == nil {
				it = &mixItem{Req: cheap[next]}
				next++
			}
			out[j*clients+c] = *it
		}
	}
	if repeats != mixRepeats || len(cheap) != cheapPer*clients {
		return nil, fmt.Errorf("perfbench: mix shape: %d repeats, %d cheap", repeats, len(cheap))
	}
	return out, nil
}

// The sweep grid shared by the three sweep workloads: a parametric
// binary-threshold ramp (one family, so one worker runs it in parameter
// order) plus fixed flock entries covering the remaining analysis kinds.
const (
	rampFrom, rampTo, rampStep = 40, 70, 2
	sweepSimRuns               = 32
)

// durableKinds are the cell kinds whose artifacts persist in the store.
var durableKinds = []engine.Kind{engine.KindStable, engine.KindBasis, engine.KindCertifyChain, engine.KindCertifyLeaderless}

// genSweep builds the sweep-cold grid of a seed. The seed picks the
// simulation/certificate seed and whether the ramp's verify and simulate
// sizes straddle the threshold from below ({N}-1, {N}) or above ({N},
// {N}+1); neither moves the cost of the dominant stable cells.
func genSweep(seed uint64) sweep.Spec {
	r := rng(seed, "sweep")
	sizes := []sweep.Expr{sweep.ParamExpr('-', 1), sweep.ParamExpr(0, 0)}
	if r.IntN(2) == 1 {
		sizes = []sweep.Expr{sweep.ParamExpr(0, 0), sweep.ParamExpr('+', 1)}
	}
	spec := sweep.Spec{
		Name: fmt.Sprintf("perfbench-%d", seed),
		Protocols: []sweep.ProtocolAxis{{
			Spec:  "binary:{N}",
			Kinds: []engine.Kind{engine.KindStable, engine.KindVerify, engine.KindSimulate},
			Sizes: sizes,
		}},
		Params:  []sweep.ParamRange{{From: rampFrom, To: rampTo, Step: rampStep}},
		Options: sweep.Options{Seed: 1 + r.Uint64N(1<<32), Runs: sweepSimRuns},
	}
	for eta := int64(5); eta <= 7; eta++ {
		spec.Protocols = append(spec.Protocols, sweep.ProtocolAxis{
			Spec: fmt.Sprintf("flock:%d", eta),
			Kinds: []engine.Kind{engine.KindBasis, engine.KindCertifyChain, engine.KindCertifyLeaderless,
				engine.KindVerify, engine.KindCover},
			Sizes: []sweep.Expr{sweep.Lit(4 * eta)},
		})
	}
	return spec
}

// selectKinds returns spec restricted (by its cells field, which keeps grid
// indices and per-cell seeds) to the cells whose kind is in kinds, or, with
// invert, to the other cells.
func selectKinds(spec sweep.Spec, kinds []engine.Kind, invert bool) (sweep.Spec, error) {
	cells, err := spec.Expand()
	if err != nil {
		return sweep.Spec{}, err
	}
	var idx []int
	for _, c := range cells {
		if slices.Contains(kinds, c.Kind) != invert {
			idx = append(idx, c.Index)
		}
	}
	spec.Cells = sweep.Ranges(idx)
	return spec, nil
}
