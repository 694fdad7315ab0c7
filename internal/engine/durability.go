package engine

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/floorplan"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/shardmap"
	"repro/internal/wal"
)

// DurabilityConfig configures the router's write-ahead logs and snapshot
// store (OpenSharded; a System, built in memory by New, touches no disk).
type DurabilityConfig struct {
	// Dir is the data directory holding segments and snapshots. Empty
	// disables durability.
	Dir string
	// Fsync selects when appended records are forced to disk: SyncAlways
	// fsyncs before every Ingest returns (no acked flushed second is ever
	// lost), SyncInterval fsyncs at most once per FsyncInterval, SyncOff
	// leaves flushing to the OS.
	Fsync wal.SyncPolicy
	// FsyncInterval is the minimum spacing between fsyncs under
	// SyncInterval. 0 means 1 second.
	FsyncInterval time.Duration
	// SnapshotEvery writes an engine snapshot every N acked seconds, so
	// recovery is a snapshot load plus a bounded replay. 0 disables periodic
	// snapshots (one is still written on Close).
	SnapshotEvery int
	// Retry bounds the transient-error retries on WAL appends and fsyncs.
	// Only transient failures (wal.IsTransient) are retried; a permanent one
	// quarantines the shard at once, or fail-stops the engine when it is the
	// last live shard.
	Retry RetryConfig
	// FS is the filesystem every WAL and snapshot byte goes through. nil
	// means the real OS filesystem; tests inject fault-wrapped filesystems
	// (internal/sim/errfs).
	FS wal.FS
	// HealBaseDelay and HealMaxDelay pace the background self-heal loop:
	// attempts to re-open a quarantined shard, the first included, wait
	// HealBaseDelay and back off exponentially up to HealMaxDelay. 0 means
	// 500ms and 15s.
	HealBaseDelay time.Duration
	HealMaxDelay  time.Duration
}

// RetryConfig bounds an exponential-backoff retry loop: transient WAL errors
// here, forward retransmissions in internal/cluster.
type RetryConfig struct {
	// Max is the number of re-attempts after the first failure. 0 means the
	// default (3); negative disables retries.
	Max int
	// BaseDelay is the wait before the first retry, doubled per attempt up
	// to MaxDelay, with deterministic ±50% jitter. 0 means 2ms and 100ms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// Attempts returns the number of re-attempts after the first failure.
func (rc RetryConfig) Attempts() int {
	if rc.Max < 0 {
		return 0
	}
	if rc.Max == 0 {
		return 3
	}
	return rc.Max
}

// Delay returns the backoff before retry attempt (0-based). salt
// deterministically perturbs the wait so lockstep retries across shards or
// peers spread out, without any global randomness source.
func (rc RetryConfig) Delay(attempt int, salt uint64) time.Duration {
	base, cap := rc.BaseDelay, rc.MaxDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if cap <= 0 {
		cap = 100 * time.Millisecond
	}
	d := Backoff(base, cap, attempt)
	// splitmix64 over (salt, attempt) → jitter in [d/2, d).
	x := shardmap.Mix(salt + uint64(attempt)*0x9e3779b97f4a7c15)
	if d > 1 {
		d = d/2 + time.Duration(x%uint64(d))/2
	}
	return d
}

// Backoff is base doubled n times, capped at limit: the one exponential
// schedule behind transient retries, shard heals and the cluster's dead-peer
// probes.
func Backoff(base, limit time.Duration, n int) time.Duration {
	d := base
	for i := 0; i < n && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// Enabled reports whether durability is configured at all.
func (d DurabilityConfig) Enabled() bool { return d.Dir != "" }

func (d DurabilityConfig) fsyncInterval() time.Duration {
	if d.FsyncInterval <= 0 {
		return time.Second
	}
	return d.FsyncInterval
}

func (d DurabilityConfig) fsys() wal.FS {
	if d.FS == nil {
		return wal.OS
	}
	return d.FS
}

func (d DurabilityConfig) healBaseDelay() time.Duration {
	if d.HealBaseDelay <= 0 {
		return 500 * time.Millisecond
	}
	return d.HealBaseDelay
}

func (d DurabilityConfig) healMaxDelay() time.Duration {
	if d.HealMaxDelay <= 0 {
		return 15 * time.Second
	}
	return d.HealMaxDelay
}

// keepSnapshots is how many snapshot barriers pruning retains; older ones,
// and the WAL segments only they need, are removed.
const keepSnapshots = 2

// snapFailBackoff is how many consecutive snapshot failures are retried on
// the very next flushed second before the schedule backs off a full
// SnapshotEvery window (bounded retry: a persistently failing snapshot store
// must not turn every flush into a doomed write).
const snapFailBackoff = 3

// retryTransient runs op, retrying transient failures (wal.IsTransient) with
// bounded exponential backoff and deterministic jitter. reset (nil ok) runs
// before each re-attempt to undo partial on-disk effects of the failure —
// Log.ResetTail for appends. Every wait is counted and traced so retries are
// visible, never silent. The returned error is the last attempt's (nil on
// success); permanent errors return immediately.
func retryTransient(rc RetryConfig, tel *Telemetry, tr *trace.Context, shard int, salt uint64,
	reset func() error, op func() error) error {
	err := op()
	for attempt, max := 0, rc.Attempts(); err != nil && attempt < max && wal.IsTransient(err); attempt++ {
		wstart := time.Now()
		time.Sleep(rc.Delay(attempt, salt))
		tel.walRetries.Inc()
		tr.Since("wal-retry", shard, wstart)
		if reset != nil {
			if rerr := reset(); rerr != nil {
				return err
			}
		}
		err = op()
	}
	return err
}

// RecoveryInfo describes what OpenSharded found and did in the data
// directory.
type RecoveryInfo struct {
	// Enabled is false when the engine was built without durability.
	Enabled bool `json:"enabled"`
	// SnapshotRestored reports whether a snapshot was loaded; SnapshotSeq is
	// the last WAL sequence it covered. SnapshotsSkipped counts corrupt
	// snapshots passed over to reach a readable one.
	SnapshotRestored bool   `json:"snapshotRestored"`
	SnapshotSeq      uint64 `json:"snapshotSeq"`
	SnapshotsSkipped int    `json:"snapshotsSkipped"`
	// RecordsReplayed / ReadingsReplayed count the WAL records (acked
	// seconds) and raw readings applied on top of the snapshot.
	RecordsReplayed  int `json:"recordsReplayed"`
	ReadingsReplayed int `json:"readingsReplayed"`
	// Corrupt reports a damaged WAL tail: TruncatedBytes were cut from the
	// last usable segment and SegmentsRemoved unreachable segments deleted.
	Corrupt         bool  `json:"corrupt"`
	TruncatedBytes  int64 `json:"truncatedBytes"`
	SegmentsRemoved int   `json:"segmentsRemoved"`
	// LastSeq is the WAL position appends continue from.
	LastSeq uint64 `json:"lastSeq"`
}

// StreamID derives the durability stream identity: an FNV-64a hash over the
// floor plan, the reader deployment, the seed, and the history mode. A WAL
// or snapshot written under a different identity refuses to load with a
// *wal.MismatchError instead of replaying readings into the wrong world.
func (c Config) StreamID(plan *floorplan.Plan, dep *rfid.Deployment) (uint64, error) {
	h := fnv.New64a()
	payload := struct {
		Rooms    []floorplan.Room
		Hallways []floorplan.Hallway
		Doors    []floorplan.Door
		Links    []floorplan.Link
		Readers  []rfid.Reader
		Pairs    []rfid.DirectedPair
		Seed     int64
		History  bool
	}{plan.Rooms(), plan.Hallways(), plan.Doors(), plan.Links(),
		dep.Readers(), dep.DirectedPairs(), c.Seed, c.KeepHistory}
	if err := json.NewEncoder(h).Encode(payload); err != nil {
		return 0, fmt.Errorf("engine: hash stream identity: %w", err)
	}
	return h.Sum64(), nil
}
