package reach

// This file implements the storage layer of the exploration core: a flat
// arena holding every configuration of a graph back to back, and a sharded
// open-addressing hash index that dedups configurations by hashing their
// raw int64 coordinates. Neither allocates per configuration: the arena
// grows by amortized append, and the index stores node ids plus cached
// hashes, so the dedup hot path never materializes a string key
// (multiset.Vec.Key remains the serialization format, not the dedup format).

import "repro/internal/wordhash"

const (
	// shardBits selects the index shard from the top hash bits; the low
	// bits drive linear probing within a shard, so the two are independent.
	shardBits = 4
	numShards = 1 << shardBits
)

// hashWords hashes the coordinates of a configuration with the shared
// raw-coordinate hasher (FNV-1a + Murmur3 avalanche; see wordhash).
func hashWords(w []int64) uint64 { return wordhash.Sum(w) }

func eqWords(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// configStore is the arena: configuration i occupies
// arena[i*dim : (i+1)*dim]. Configurations are immutable once added, so
// slices handed out before an append-triggered reallocation stay valid
// (they alias the old backing array, whose contents never change).
type configStore struct {
	dim   int
	n     int
	arena []int64
}

// at returns configuration i as a slice view into the arena.
func (s *configStore) at(i int32) []int64 {
	o := int(i) * s.dim
	return s.arena[o : o+s.dim : o+s.dim]
}

// add appends a copy of c and returns its id.
func (s *configStore) add(c []int64) int32 {
	s.arena = append(s.arena, c...)
	s.n++
	return int32(s.n - 1)
}

// nodeIndex maps configuration coordinates to node ids: numShards
// open-addressing tables with linear probing, selected by the top hash
// bits. Each slot stores the node id (+1, so the zero value is "empty")
// and the full hash, so probe misses are rejected without touching the
// arena and rehashing never recomputes hashes.
type nodeIndex struct {
	shards [numShards]idxShard
}

type idxShard struct {
	slots  []int32 // node id + 1; 0 = empty
	hashes []uint64
	used   int
}

func (ix *nodeIndex) shard(h uint64) *idxShard {
	return &ix.shards[h>>(64-shardBits)]
}

// lookup returns the id of the configuration equal to c (with hash h), if
// present.
func (ix *nodeIndex) lookup(st *configStore, c []int64, h uint64) (int32, bool) {
	sh := ix.shard(h)
	if len(sh.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := sh.slots[i]
		if id == 0 {
			return 0, false
		}
		if sh.hashes[i] == h && eqWords(st.at(id-1), c) {
			return id - 1, true
		}
	}
}

// add records id for a configuration with hash h. The configuration must
// already be in the store and must not be in the index.
func (ix *nodeIndex) add(id int32, h uint64) {
	sh := ix.shard(h)
	if (sh.used+1)*4 > len(sh.slots)*3 {
		sh.grow()
	}
	sh.insert(id, h)
}

func (sh *idxShard) insert(id int32, h uint64) {
	mask := uint64(len(sh.slots) - 1)
	i := h & mask
	for sh.slots[i] != 0 {
		i = (i + 1) & mask
	}
	sh.slots[i] = id + 1
	sh.hashes[i] = h
	sh.used++
}

// grow doubles the shard (min 64 slots) and reinserts from the cached
// hashes; the arena is not consulted.
func (sh *idxShard) grow() {
	newCap := 64
	if len(sh.slots) > 0 {
		newCap = len(sh.slots) * 2
	}
	oldSlots, oldHashes := sh.slots, sh.hashes
	sh.slots = make([]int32, newCap)
	sh.hashes = make([]uint64, newCap)
	sh.used = 0
	for i, id := range oldSlots {
		if id != 0 {
			sh.insert(id-1, oldHashes[i])
		}
	}
}
