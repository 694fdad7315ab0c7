// Package shardmap assigns objects to in-process engine shards. The
// assignment is a pure function of (object ID, shard count): every router,
// every recovery, and every test partitions identically, which is what lets
// the sharded engine promise bit-for-bit equivalence with the single-shard
// one — an object's readings, cache entries, and WAL records always land in
// the same shard.
//
// The map is a splitmix64 finalizer (so adjacent object IDs scatter) feeding
// Lamping–Veach jump consistent hashing. Jump hashing keeps the assignment
// balanced at any shard count and moves only ~1/(n+1) of the keys when the
// count grows from n to n+1 — relevant for future resharding tooling, and
// free today.
package shardmap

import "repro/internal/model"

// Of returns the shard index in [0, shards) owning the object. shards < 2
// always yields 0, so single-shard callers can use it unconditionally.
func Of(obj model.ObjectID, shards int) int {
	if shards < 2 {
		return 0
	}
	return Jump(Mix(uint64(obj)), shards)
}

// Jump is the Lamping–Veach jump consistent hash: a O(log n) bucket
// assignment with no lookup table, balanced to within sampling error.
func Jump(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// Mix is the splitmix64 finalizer: a bijective avalanche so the sequential
// object IDs a simulator hands out do not stripe across buckets. The retry
// jitter and the cluster's per-peer salts mix with it too.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
