// Package shard partitions one Themis arbiter's work across a fixed set of
// shards: a consistent-hash ring maps every app to its home shard, and Split
// carves the cluster topology into per-shard capacity partitions. The shard
// map is static — built once from the shard count and never rebalanced — so
// every process that knows the topology and the shard count computes the
// same routing. The in-process sharded arbiter (arbiterd -shards) is built
// on these two pieces.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the number of ring points per member when a Ring is
// built with vnodes <= 0. More points smooth the key distribution; 64 keeps
// the per-member imbalance under ~15% for small member counts.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring with virtual nodes. The
// app→member mapping depends only on the member set and the vnode count —
// never on the order members are listed in — so a ring over the same shard
// names always routes the same way.
type Ring struct {
	points []ringPoint // sorted by (hash, owner)
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing builds the ring over members with the given virtual-node count per
// member (<= 0 uses DefaultVirtualNodes).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	points := make([]ringPoint, 0, len(members)*vnodes)
	for _, m := range members {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, v)), owner: m})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].owner < points[j].owner
	})
	return &Ring{points: points}
}

// hash64 is the ring's point and key hash: FNV-1a finished with a
// splitmix64-style avalanche. Raw FNV clusters badly on the short,
// near-identical strings ring points are made of ("shard-0#17"), which
// skews key ownership several-fold; the mixer spreads those clusters over
// the whole ring. Pure function of the string, so every process agrees.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Lookup returns the member owning key: the owner of the first ring point at
// or after the key's hash, wrapping around. An empty ring returns "".
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].owner
}
