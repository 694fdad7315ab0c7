package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
)

// Shard fault isolation (DESIGN.md §11). A durability failure on one
// shard's WAL must not poison the router: the shard is quarantined (bulkhead),
// its objects' readings become typed drops, queries answer from the live
// shards with an explicit partial marker, and a background loop re-opens the
// shard from its snapshot+WAL and replays it back into lockstep. The last
// live shard has no healthy peers to keep serving beside, so its failure is
// not a quarantine: the engine fail-stops (at Shards: 1 every failure is).
//
// Per-shard state machine:
//
//	LIVE ──(append/fsync failure after retries, other shards live)──▶ QUARANTINED
//	QUARANTINED ──(heal attempt starts)──▶ HEALING
//	HEALING ──(replay verified, barrier written)──▶ LIVE
//	HEALING ──(any step fails)──▶ QUARANTINED (backoff, try again)
//
// The state lives in an atomic so query paths read it without ingestMu; every
// transition is made under ingestMu so the durability pipeline observes a
// consistent picture.

const (
	shardLive int32 = iota
	shardQuarantined
	shardHealing
)

// quarInfo is the router's book-keeping for one quarantined shard. Guarded by
// ingestMu.
type quarInfo struct {
	// seq is the last WAL sequence fully present in the shard's log (and
	// applied to its in-memory state) when it was quarantined. The heal
	// replay must land exactly here or the shard does not rejoin.
	seq   uint64
	cause error
	// missed records the flushed seconds applied to the live shards while
	// this one was out. Healing fast-forwards them (with no readings — the
	// shard's readings were dropped) so LEAVE detection and the shard clock
	// match an engine that was never quarantined.
	missed   []model.Time
	attempts int
	nextTry  time.Time
}

// QuarantineError marks a query answered without one or more quarantined
// shards: the result is correct over every live shard's objects but is not
// the full population. It mirrors the deadline-partial contract — the HTTP
// layer surfaces it as "partial": true with the degraded shard list.
type QuarantineError struct {
	Shards []int
}

// Error implements the error interface.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("engine: partial result: %d shard(s) quarantined %v", len(e.Shards), e.Shards)
}

// Merge implements Marker: two queries' worth of quarantined shards are one
// marker naming them all.
func (e *QuarantineError) Merge(other error) (error, bool) {
	o, ok := other.(*QuarantineError)
	if !ok {
		return nil, false
	}
	return &QuarantineError{Shards: Union(e.Shards, o.Shards)}, true
}

// IsQuarantine reports whether err (or anything it wraps) marks a partial
// result caused by quarantined shards.
func IsQuarantine(err error) (*QuarantineError, bool) {
	var qe *QuarantineError
	if errors.As(err, &qe) {
		return qe, true
	}
	return nil, false
}

// DegradedShards returns the shards currently quarantined or healing, in
// order (nil when all shards are live). Safe without locks.
func (e *Sharded) DegradedShards() []int {
	var out []int
	for i := range e.shardState {
		if e.shardState[i].Load() != shardLive {
			out = append(out, i)
		}
	}
	return out
}

// liveShards counts shards in the LIVE state.
func (e *Sharded) liveShards() int {
	n := 0
	for i := range e.shardState {
		if e.shardState[i].Load() == shardLive {
			n++
		}
	}
	return n
}

// quarMarkerPath names the durable quarantine marker for shard i. The marker
// carries the quarantine sequence; its presence tells recovery that the
// shard's log is legitimately behind the others (exempt from the lockstep
// cut) rather than a ragged tail that should truncate the live shards.
func quarMarkerPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("quarantine-%04d", i))
}

func writeQuarMarker(fsys wal.FS, dir string, i int, seq uint64) error {
	return wal.WriteFileFS(fsys, quarMarkerPath(dir, i), []byte(strconv.FormatUint(seq, 10)+"\n"), 0o644)
}

func removeQuarMarker(fsys wal.FS, dir string, i int) error {
	err := fsys.Remove(quarMarkerPath(dir, i))
	if err != nil && errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// readQuarMarkers returns the quarantine markers present in dir as
// shard → quarantine seq. Unparsable markers are treated as seq 0 (the shard
// restores from scratch — safe, just slower).
func readQuarMarkers(fsys wal.FS, dir string, n int) (map[int]uint64, error) {
	out := make(map[int]uint64)
	for i := 0; i < n; i++ {
		data, err := wal.ReadFileFS(fsys, quarMarkerPath(dir, i))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("engine: read quarantine marker for shard %d: %w", i, err)
		}
		seq, perr := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
		if perr != nil {
			log.Printf("engine: unreadable quarantine marker for shard %d (%q); treating as seq 0", i, strings.TrimSpace(string(data)))
			seq = 0
		}
		out[i] = seq
	}
	return out, nil
}

// quarantineShard takes shard i out of the durability pipeline after an
// unrecoverable WAL failure: its log is closed at the last whole record, a
// durable marker written, and the self-heal loop scheduled. Healthy shards
// are untouched. When shard i is the last live one the engine fail-stops
// instead: the shard stays LIVE with no marker, so queries keep answering in
// full from memory and the next OpenSharded takes its log as the lockstep
// reference (torn tail repaired) rather than as a shard left behind. Called
// under ingestMu.
func (e *Sharded) quarantineShard(i int, cause error) {
	if e.shardState[i].Load() != shardLive {
		return
	}
	// Leave the log ending at the last whole record: the final failed attempt
	// may have persisted a partial frame (best effort — recovery's torn-tail
	// repair covers a failure here too).
	l := e.wals[i]
	l.ResetTail()
	if e.liveShards() == 1 {
		e.failWAL(fmt.Errorf("shard %d, the last of %d live: %w", i, e.n, cause))
		return
	}
	e.shardState[i].Store(shardQuarantined)
	seq := l.LastSeq()
	l.Close()
	e.wals[i] = nil
	// The first background attempt waits HealBaseDelay like every later one:
	// the fault that just exhausted the retries is unlikely to have cleared.
	e.quar[i] = &quarInfo{seq: seq, cause: cause, nextTry: time.Now().Add(e.cfg.Durability.healBaseDelay())}
	e.shards[i].shardTel.quarantined.Set(1)
	e.tel.shardQuarantines.Inc()
	if err := writeQuarMarker(e.cfg.Durability.fsys(), e.cfg.Durability.Dir, i, seq); err != nil {
		log.Printf("engine: write quarantine marker for shard %d: %v", i, err)
	}
	log.Printf("engine: shard %d quarantined at seq %d: %v (live shards continue; self-heal scheduled)", i, seq, cause)
	e.startHealer()
}

// dropQuarantined strips the flushed second's readings destined for non-live
// shards before the WAL appends: they can reach no log, so they become typed
// drops, and the second is recorded as missed so healing can fast-forward it.
// Called under ingestMu.
func (e *Sharded) dropQuarantined(t model.Time, parts [][]model.RawReading) {
	for i := range parts {
		if e.shardState[i].Load() == shardLive {
			continue
		}
		e.extraDrops.QuarantinedReadings += len(parts[i])
		parts[i] = nil
		if q := e.quar[i]; q != nil {
			q.missed = append(q.missed, t)
		}
	}
}

// dropPart is dropQuarantined for a single shard that failed mid-append.
func (e *Sharded) dropPart(i int, t model.Time, parts [][]model.RawReading) {
	e.extraDrops.QuarantinedReadings += len(parts[i])
	parts[i] = nil
	if q := e.quar[i]; q != nil {
		q.missed = append(q.missed, t)
	}
}

// ---------------------------------------------------------------------------
// The self-heal loop.

// startHealer launches the background heal goroutine once. Called under
// ingestMu.
func (e *Sharded) startHealer() {
	if e.healerOn {
		return
	}
	e.healerOn = true
	e.healStop = make(chan struct{})
	e.healDone = make(chan struct{})
	go e.healLoop(e.healStop, e.healDone)
}

// stopHealer shuts the heal goroutine down and waits for it. Must be called
// WITHOUT ingestMu held (the loop takes ingestMu).
func (e *Sharded) stopHealer() {
	e.ingestMu.Lock()
	if !e.healerOn {
		e.ingestMu.Unlock()
		return
	}
	stop, done := e.healStop, e.healDone
	e.ingestMu.Unlock()
	close(stop)
	<-done
	e.ingestMu.Lock()
	e.healerOn = false
	e.ingestMu.Unlock()
}

// healLoop wakes every HealBaseDelay and attempts to heal the quarantined
// shards whose per-shard backoff (quarInfo.nextTry, healBackoff) has elapsed.
// It runs until stopped.
func (e *Sharded) healLoop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(e.cfg.Durability.healBaseDelay())
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		for i := 0; i < e.n; i++ {
			if e.shardState[i].Load() != shardQuarantined {
				continue
			}
			e.ingestMu.Lock()
			q := e.quar[i]
			due := q != nil && !q.nextTry.After(now)
			e.ingestMu.Unlock()
			if due {
				if err := e.tryHeal(i); err != nil {
					log.Printf("engine: heal shard %d: %v", i, err)
				}
			}
		}
	}
}

// healBackoff is the wait before attempt n (1-based) of healing one shard:
// exponential from HealBaseDelay up to HealMaxDelay.
func (d DurabilityConfig) healBackoff(attempts int) time.Duration {
	w := d.healBaseDelay()
	cap := d.healMaxDelay()
	for i := 1; i < attempts && w < cap; i++ {
		w *= 2
	}
	if w > cap {
		w = cap
	}
	return w
}

// HealNow synchronously attempts to heal every quarantined shard, ignoring
// the backoff schedule. It returns the first heal failure (nil when nothing
// was quarantined or every attempt succeeded). Tests and operators use it;
// the background loop does the same work on its own clock.
func (e *Sharded) HealNow() error {
	var first error
	for i := 0; i < e.n; i++ {
		if e.shardState[i].Load() != shardQuarantined {
			continue
		}
		if err := e.tryHeal(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tryHeal attempts to bring shard i back into lockstep:
//
//  1. QUARANTINED → HEALING under ingestMu (claims the shard).
//  2. Off-lock disk phase: restore the shard's newest snapshot at or below
//     the quarantine sequence and open its log, collecting the records in
//     between. The recovered log must end exactly at the quarantine sequence
//     — the router barrier position the shard was cut at — or the shard does
//     not rejoin (acked data would silently diverge).
//  3. Under ingestMu again: rebuild the shard's in-memory state (replay +
//     fast-forward of the missed seconds), mark the shard LIVE, and write a
//     full snapshot barrier. The barrier must succeed before appends resume:
//     the shard's log has no records for the quarantine window, so only a
//     snapshot at the current sequence makes its next append gapless.
func (e *Sharded) tryHeal(i int) error {
	e.ingestMu.Lock()
	q := e.quar[i]
	if q == nil || e.walErr != nil || !e.shardState[i].CompareAndSwap(shardQuarantined, shardHealing) {
		e.ingestMu.Unlock()
		return nil
	}
	qseq := q.seq
	e.ingestMu.Unlock()

	fail := func(err error) error {
		e.ingestMu.Lock()
		e.shardState[i].CompareAndSwap(shardHealing, shardQuarantined)
		if q := e.quar[i]; q != nil {
			q.attempts++
			q.nextTry = time.Now().Add(e.cfg.Durability.healBackoff(q.attempts))
		}
		e.ingestMu.Unlock()
		return err
	}

	// Phase 2: disk, no router locks held. Live ingestion continues.
	d := e.cfg.Durability
	fsys := d.fsys()
	sdir := shardDir(d.Dir, i)
	snaps, err := wal.ListSnapshotsFS(fsys, sdir)
	if err != nil {
		return fail(err)
	}
	var (
		snapSeq  uint64
		ssnap    shardSnap
		restored bool
	)
	for k := len(snaps) - 1; k >= 0 && !restored; k-- {
		if snaps[k].Seq > qseq {
			continue
		}
		_, payload, rerr := wal.ReadSnapshotFileFS(fsys, snaps[k].Path, e.streamID)
		if rerr != nil {
			var mm *wal.MismatchError
			if errors.As(rerr, &mm) {
				return fail(rerr)
			}
			continue
		}
		var s shardSnap
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); derr != nil {
			continue
		}
		snapSeq, ssnap, restored = snaps[k].Seq, s, true
	}
	var batches []wal.Batch
	expected := snapSeq + 1
	newLog, _, err := wal.Open(sdir, wal.Options{StreamID: e.streamID, SegmentBytes: d.SegmentBytes, FS: d.FS},
		func(seq uint64, payload []byte) error {
			if seq <= snapSeq {
				return nil
			}
			if seq != expected {
				return fmt.Errorf("engine: shard %d WAL gap during heal: snapshot covers seq %d but next record is %d (want %d)",
					i, snapSeq, seq, expected)
			}
			b, derr := wal.DecodeBatch(payload)
			if derr != nil {
				return derr
			}
			batches = append(batches, b)
			expected++
			return nil
		})
	if err != nil {
		return fail(err)
	}
	if got := newLog.LastSeq(); got != qseq {
		newLog.Close()
		return fail(fmt.Errorf("engine: shard %d heal: recovered log ends at seq %d, quarantined at %d; refusing to rejoin", i, got, qseq))
	}

	// Phase 3: rejoin under ingestMu.
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.quar[i] != q || e.shardState[i].Load() != shardHealing || e.walErr != nil {
		newLog.Close()
		return nil
	}
	sh := e.shards[i]
	e.shardMu[i].Lock()
	// With no usable snapshot ssnap is still zero: the shard restarts from
	// nothing and its whole log replays below.
	sh.restoreShard(&ssnap)
	for k := range batches {
		// These seconds pre-date the quarantine; their ENTERs released the
		// router's monitor when they were applied live.
		sh.collectSecond(batches[k].Time, batches[k].Readings)
	}
	// Fast-forward the seconds flushed while the shard was out. The shard's
	// readings for them were dropped, so each advances the clock with an
	// empty second — LEAVE detection fires exactly as it would have live.
	for _, t := range q.missed {
		sh.collectSecond(t, nil)
	}
	e.shardMu[i].Unlock()
	e.wals[i] = newLog
	// The barrier pins the rejoin: the healed log ends at qseq but the next
	// append is walSeq+1, and only a snapshot at walSeq bridges that gap for
	// recovery. The shard stays HEALING (still degraded to lock-free readers)
	// until the barrier is durable — flipping LIVE first would let a reader
	// observe a rejoin that then reverts. If it fails, the shard goes back to
	// quarantine untouched on disk and a later attempt retries.
	e.rejoining = i
	berr := e.writeSnapshots()
	e.rejoining = -1
	if berr != nil {
		e.shardState[i].Store(shardQuarantined)
		newLog.Close()
		e.wals[i] = nil
		q.attempts++
		q.nextTry = time.Now().Add(e.cfg.Durability.healBackoff(q.attempts))
		return fmt.Errorf("engine: shard %d heal: rejoin barrier failed: %w", i, berr)
	}
	e.shardState[i].Store(shardLive)
	if err := removeQuarMarker(fsys, d.Dir, i); err != nil {
		// The stale marker is harmless: recovery detects a marker whose shard
		// has a snapshot at the chosen barrier and treats it as live.
		log.Printf("engine: remove quarantine marker for shard %d: %v", i, err)
	}
	e.quar[i] = nil
	sh.shardTel.quarantined.Set(0)
	e.tel.shardHeals.Inc()
	log.Printf("engine: shard %d healed: rejoined at seq %d after %d missed seconds", i, e.walSeq, len(q.missed))
	return nil
}
