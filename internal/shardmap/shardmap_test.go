package shardmap

import (
	"testing"

	"repro/internal/model"
)

func TestOfRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 16, 64} {
		for obj := model.ObjectID(0); obj < 1000; obj++ {
			i := Of(obj, shards)
			if i < 0 || i >= shards {
				t.Fatalf("Of(%d, %d) = %d out of range", obj, shards, i)
			}
		}
	}
}

func TestOfSingleShard(t *testing.T) {
	for _, shards := range []int{-1, 0, 1} {
		if got := Of(42, shards); got != 0 {
			t.Errorf("Of(42, %d) = %d, want 0", shards, got)
		}
	}
}

// TestOfDeterministic pins the assignment as a pure function: the sharded
// engine's recovery path depends on the same object landing in the same
// shard across processes.
func TestOfDeterministic(t *testing.T) {
	for obj := model.ObjectID(0); obj < 500; obj++ {
		a := Of(obj, 16)
		b := Of(obj, 16)
		if a != b {
			t.Fatalf("Of(%d, 16) unstable: %d then %d", obj, a, b)
		}
	}
}

// TestOfBalance checks the splitmix64+jump combination spreads sequential
// object IDs evenly: no shard may hold more than twice its fair share.
func TestOfBalance(t *testing.T) {
	const objects, shards = 10000, 16
	counts := make([]int, shards)
	for obj := model.ObjectID(0); obj < objects; obj++ {
		counts[Of(obj, shards)]++
	}
	fair := objects / shards
	for i, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("shard %d holds %d objects (fair share %d)", i, c, fair)
		}
	}
}

// TestJumpConsistency pins the jump hash's defining property: growing the
// bucket count never moves a key between two pre-existing buckets.
func TestJumpConsistency(t *testing.T) {
	for key := uint64(1); key < 2000; key += 7 {
		prev := Jump(Mix(key), 8)
		next := Jump(Mix(key), 9)
		if next != prev && next != 8 {
			t.Fatalf("key %d moved %d -> %d when adding bucket 8", key, prev, next)
		}
	}
}
