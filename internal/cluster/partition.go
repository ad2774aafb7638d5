package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"

	"repro/internal/engine"
	"repro/internal/sweep"
)

// refKey is the memoization key of a cell's protocol reference: cheap to
// compute per cell, stable across cells of the same reference. Family cells
// key by the family template, so every member of a parametric family shares
// one key — and therefore one affinity group and one worker, which runs the
// members in parameter order, one at a time, as sweep.Run's family chains
// do locally (see familyChains there for why).
func refKey(c sweep.Cell) string {
	req := c.Request
	switch {
	case c.Family != "":
		return "family:" + c.Family
	case req.Protocol.Spec != "":
		return "spec:" + req.Protocol.Spec
	case len(req.Protocol.Inline) > 0:
		sum := sha256.Sum256(req.Protocol.Inline)
		return "inline:" + hex.EncodeToString(sum[:])
	default:
		// Protocol-free bounds cells: route by state count, so a pure
		// bounds sweep still spreads across the cluster.
		return fmt.Sprintf("states:%d", req.States)
	}
}

// group is the unit of affinity: every cell of one protocol content hash,
// in ascending grid-index order.
type group struct {
	hash  string
	cells []sweep.Cell
}

// groupByHash buckets expanded cells by routing key, preserving the grid
// order of first appearance (deterministic given the spec). A cell's
// routing key is its protocol's content hash, resolved once per refKey
// through eng: the hash that keys the engine artifact cache, so routing
// affinity and cache affinity coincide even when a registry spec and an
// inline protocol denote the same protocol. Family cells and
// protocol-free cells route by their refKey, as does a reference that
// fails to resolve — the node that executes such a cell reports the
// per-cell error, exactly as a single-process sweep does.
func groupByHash(cells []sweep.Cell, eng *engine.Engine) []group {
	hashes := make(map[string]string) // refKey → routing key
	index := make(map[string]int)     // routing key → groups position
	var groups []group
	for _, c := range cells {
		key := refKey(c)
		h, ok := hashes[key]
		if !ok {
			h = key
			if c.Family == "" && !c.Request.Protocol.IsZero() {
				if entry, err := eng.Resolve(c.Request.Protocol); err == nil {
					if ch, err := engine.Hash(entry.Protocol); err == nil {
						h = ch
					}
				}
			}
			hashes[key] = h
		}
		gi, ok := index[h]
		if !ok {
			gi = len(groups)
			index[h] = gi
			groups = append(groups, group{hash: h})
		}
		groups[gi].cells = append(groups[gi].cells, c)
	}
	return groups
}

// task is one dispatchable cell range: a slice of one group, so all its
// cells share a protocol (and therefore a preferred worker). attempts
// counts remote dispatches; past maxAttempts the task runs locally instead.
type task struct {
	hash     string
	cells    []sweep.Cell
	attempts int
	// sheds counts consecutive 503 backpressure retries (reset is
	// unnecessary: a successful dispatch retires the task).
	sheds int
}

// chunk splits groups into tasks of at most rangeCells cells — the retry
// granularity: a failed range re-executes at most this many cells.
func chunk(groups []group, rangeCells int) []*task {
	var tasks []*task
	for _, g := range groups {
		for off := 0; off < len(g.cells); off += rangeCells {
			end := min(off+rangeCells, len(g.cells))
			tasks = append(tasks, &task{hash: g.hash, cells: g.cells[off:end]})
		}
	}
	return tasks
}

// indices returns the task's grid indices (ascending).
func (t *task) indices() []int {
	out := make([]int, len(t.cells))
	for i, c := range t.cells {
		out[i] = c.Index
	}
	return out
}

// route picks the worker for a protocol hash by rendezvous (highest random
// weight) hashing: each (hash, worker) pair scores independently and the
// highest score wins. Routing is stable — a membership change only moves
// the groups whose winner changed — so worker artifact caches stay hot
// across sweeps and across joins/leaves.
func route(hash string, workers []Worker) (Worker, bool) {
	var (
		best  Worker
		score uint64
		found bool
	)
	for _, w := range workers {
		s := rendezvousScore(hash, w.ID)
		if !found || s > score || (s == score && w.ID < best.ID) {
			best, score, found = w, s, true
		}
	}
	return best, found
}

// rendezvousScore hashes the (protocol hash, worker ID) pair with FNV-1a
// plus a finalizing avalanche, decorrelating workers that share a prefix.
func rendezvousScore(hash, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(hash))
	h.Write([]byte{0xff})
	h.Write([]byte(id))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
