package engine

import (
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
// shard's log and rejoins it. The quarantined shard still takes every flushed
// second, empty, so its memory always equals "its log at the quarantine
// sequence plus the empty seconds since" — the state a heal rejoins with,
// already built. The last live shard has no healthy peers to keep serving
// beside, so its failure is not a quarantine: the engine fail-stops (at
// Shards: 1 every failure is).
//
// Per-shard state machine:
//
//	LIVE ──(append/fsync failure after retries, other shards live)──▶ QUARANTINED
//	QUARANTINED ──(heal attempt starts)──▶ HEALING
//	HEALING ──(log ends at the quarantine seq, barrier written)──▶ LIVE
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
	// seq is the last WAL sequence fully present in the shard's log when it
	// was quarantined. The reopened log must end exactly here or the shard
	// does not rejoin.
	seq      uint64
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

// QuarantineMarkers returns the quarantine markers present in the sharded
// data directory dir as shard → quarantine seq; it only reads. Unparsable markers are treated as seq 0 (the shard
// restores from scratch — safe, just slower).
func QuarantineMarkers(fsys wal.FS, dir string, n int) (map[int]uint64, error) {
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
	e.quar[i] = &quarInfo{seq: seq, nextTry: time.Now().Add(e.cfg.Durability.healBaseDelay())}
	e.shards[i].shardTel.quarantined.Set(1)
	e.tel.shardQuarantines.Inc()
	if err := writeQuarMarker(e.cfg.Durability.fsys(), e.cfg.Durability.Dir, i, seq); err != nil {
		log.Printf("engine: write quarantine marker for shard %d: %v", i, err)
	}
	log.Printf("engine: shard %d quarantined at seq %d: %v (live shards continue; self-heal scheduled)", i, seq, cause)
	e.startHealer()
}

// dropQuarantined strips shard i's part of the flushed second — the shard is
// out, or its append just failed: the readings can reach no log, so they
// become typed drops, and the shard takes the second empty. Called under
// ingestMu.
func (e *Sharded) dropQuarantined(i int, parts [][]model.RawReading) {
	e.extraDrops.QuarantinedReadings += len(parts[i])
	parts[i] = nil
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
// shards whose per-shard backoff (quarInfo.nextTry, healRetry) has elapsed.
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

// tryHeal attempts to bring shard i back into lockstep. Its memory already
// stands where a never-quarantined shard's would, minus the dropped readings:
// every second since the quarantine was applied to it, empty. So a heal
// touches only the disk:
//
//  1. QUARANTINED → HEALING under ingestMu (claims the shard).
//  2. Off-lock: reopen the shard's log (stream-identity check, torn-tail
//     repair). It must end exactly at the quarantine sequence — the router
//     barrier position the shard was cut at — or the shard does not rejoin:
//     its memory is that log plus empty seconds, and acked data would
//     silently diverge from any other log.
//  3. Under ingestMu again: write a full snapshot barrier, then mark the shard
//     LIVE. The barrier must succeed before appends resume: the shard's log
//     has no records for the quarantine window, so only a snapshot at the
//     current sequence makes its next append gapless. A failed barrier leaves
//     memory untouched, so there is nothing to undo.
func (e *Sharded) tryHeal(i int) error {
	e.ingestMu.Lock()
	q := e.quar[i]
	if q == nil || e.walErr != nil || !e.shardState[i].CompareAndSwap(shardQuarantined, shardHealing) {
		e.ingestMu.Unlock()
		return nil
	}
	e.ingestMu.Unlock()

	d := e.cfg.Durability
	l, _, err := wal.Open(ShardDir(d.Dir, i), wal.Options{StreamID: e.streamID, FS: d.FS}, nil)
	if err == nil && l.LastSeq() != q.seq {
		err = fmt.Errorf("engine: shard %d heal: reopened log ends at seq %d, quarantined at %d; refusing to rejoin", i, l.LastSeq(), q.seq)
		l.Close()
	}

	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if err != nil {
		e.healRetry(i, q)
		return err
	}
	if e.walErr != nil {
		l.Close()
		return nil
	}
	e.wals[i] = l
	// The shard stays HEALING (still degraded to lock-free readers) until the
	// barrier is durable — flipping LIVE first would let a reader observe a
	// rejoin that then reverts.
	e.rejoining = i
	err = e.writeSnapshots()
	e.rejoining = -1
	if err != nil {
		l.Close()
		e.wals[i] = nil
		e.healRetry(i, q)
		return fmt.Errorf("engine: shard %d heal: rejoin barrier failed: %w", i, err)
	}
	e.shardState[i].Store(shardLive)
	if err := removeQuarMarker(d.fsys(), d.Dir, i); err != nil {
		// The stale marker is harmless: recovery detects a marker whose shard
		// has a snapshot at the chosen barrier and treats it as live.
		log.Printf("engine: remove quarantine marker for shard %d: %v", i, err)
	}
	e.quar[i] = nil
	e.shards[i].shardTel.quarantined.Set(0)
	e.tel.shardHeals.Inc()
	log.Printf("engine: shard %d healed: rejoined at seq %d, quarantined at %d", i, e.walSeq, q.seq)
	return nil
}

// healRetry returns shard i to QUARANTINED after a failed heal and schedules
// the next attempt: HealBaseDelay doubled per failure, up to HealMaxDelay.
// Called under ingestMu.
func (e *Sharded) healRetry(i int, q *quarInfo) {
	e.shardState[i].Store(shardQuarantined)
	q.attempts++
	d := e.cfg.Durability
	q.nextTry = time.Now().Add(Backoff(d.healBaseDelay(), d.healMaxDelay(), q.attempts-1))
}
