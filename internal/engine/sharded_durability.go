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
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/collector"
	"repro/internal/floorplan"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/wal"
)

// The engine's one durability path (DESIGN.md §11): one WAL stream
// per shard plus a router snapshot stream, all sharing one stream identity
// (Config.StreamID). Shards: 1 is the same layout with a single shard-0000/.
//
// Layout under Durability.Dir:
//
//	SHARDS            guard file: the shard count the directory was written with
//	snap-*.snap       router snapshots (reorder position, query counters, quarantine records)
//	quarantine-NNNN   marker: shard NNNN was quarantined at the recorded seq
//	shard-0000/       shard 0's WAL segments and snapshots
//	shard-0001/       ...
//
// Every flushed second appends one record to EVERY live shard's log at the
// same sequence number — empty subsets included — carrying the router's
// reorder metadata redundantly. Lockstep sequences make recovery simple and
// exact: the highest snapshot sequence readable in the router AND every
// (non-quarantined) shard is restored, then the shard logs are replayed
// second by second through the same applyParts path live ingestion uses. A
// crash between the per-shard appends of one second leaves a ragged tail;
// recovery replays to the shortest live log's last sequence and truncates
// the shards that got further (wal.TruncateTo), which is exactly the
// all-or-nothing cut a torn-tail repair makes on a single log.
//
// A quarantine marker changes the reading of a short log: the marked shard
// is legitimately behind (its log was cut when the shard was quarantined), so
// its length is excluded from the lockstep cut — without the marker, one
// quarantined shard would truncate every healthy shard back to its seq and
// lose acked data. Marked shards are restored from their own snapshots, ride
// the lockstep replay for the seconds their log covers, and come back
// quarantined with the self-heal loop scheduled (sharded_heal.go).

// shardGuardFile names the file pinning the directory's shard count.
const shardGuardFile = "SHARDS"

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
}

// checkShardGuard pins dir to one shard count. The shard map is a pure
// function of (object, count), so opening a directory with a different
// count would scatter recovered objects across the wrong shards. A directory
// with no guard file is stamped as new — unless it holds top-level segments
// or snapshots, the flat layout the pre-router single engine wrote: opening
// that as new would come up empty and ack fresh writes over the old state,
// so it is refused.
func checkShardGuard(fsys wal.FS, dir string, n int) error {
	path := filepath.Join(dir, shardGuardFile)
	data, err := wal.ReadFileFS(fsys, path)
	if errors.Is(err, os.ErrNotExist) {
		segs, serr := wal.SegmentInfosFS(fsys, dir)
		if serr != nil {
			return serr
		}
		snaps, serr := wal.ListSnapshotsFS(fsys, dir)
		if serr != nil {
			return serr
		}
		if len(segs)+len(snaps) > 0 {
			return fmt.Errorf("engine: data directory %s holds the legacy flat single-engine layout (%d WAL segments and %d snapshots at the top level, no %s file); refusing to open it as an empty %s + shard-%%04d/ directory over that state (walctl still reads it)",
				dir, len(segs), len(snaps), shardGuardFile, shardGuardFile)
		}
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("engine: create data dir: %w", err)
		}
		if err := wal.WriteFileFS(fsys, path, []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
			return fmt.Errorf("engine: write shard guard: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("engine: read shard guard: %w", err)
	}
	have, perr := strconv.Atoi(strings.TrimSpace(string(data)))
	if perr != nil {
		return fmt.Errorf("engine: unreadable shard guard %s: %q", path, strings.TrimSpace(string(data)))
	}
	if have != n {
		return fmt.Errorf("engine: data directory %s was written with %d shards, refusing to open with %d (the shard map would misroute recovered objects)", dir, have, n)
	}
	return nil
}

// quarRecord is a quarantined shard's entry in the router snapshot. It
// carries what the marker file cannot afford to: the full list of flushed
// seconds the shard has missed so far, so a crash during a quarantine that
// outlived a snapshot barrier still heals with exact fast-forward times.
type quarRecord struct {
	Shard  int
	Seq    uint64
	Missed []model.Time
}

// routerSnap is the router's share of a sharded snapshot: everything the
// shards do not own. The per-shard shardSnap carries the rest. Snapshots
// written when the router also kept an ENTER/LEAVE log still decode: gob
// skips the log and its heal-splice count, fields this type no longer has.
type routerSnap struct {
	RangeQueries   int
	KNNQueries     int
	ReorderStarted bool
	Watermark      model.Time
	MaxSeen        model.Time
	Drops          ingest.Drops
	Forced         int
	// Quarantined lists the shards out of lockstep when the barrier was
	// written (absent in snapshots from engines that never quarantined).
	Quarantined []quarRecord
}

// shardSnap is one shard's share of a sharded snapshot.
type shardSnap struct {
	Stats        Stats
	Collector    collector.Snapshot
	CacheEntries []cache.Entry
	CacheHits    int
	CacheMisses  int
}

// Recovery returns what OpenSharded found in the data directory.
func (e *Sharded) Recovery() RecoveryInfo { return e.recovery }

// WALError returns the sticky WAL failure that fail-stopped ingestion, or
// nil while the engine is healthy. A quarantine beside live shards is NOT an
// engine failure — see DegradedShards; walErr becomes sticky when the last
// live shard's log fails, which at Shards: 1 is any log failure.
func (e *Sharded) WALError() error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.walErr
}

// OpenSharded assembles a Sharded engine like NewSharded and, when
// durability is enabled, recovers it from the data directory: the newest
// complete snapshot barrier is restored, the shard logs replayed from there
// in lockstep (repairing torn, corrupt or ragged tails in place), and every
// subsequent acked second is logged. Recovery is deterministic — the
// recovered engine answers queries bit-for-bit like an uncrashed in-memory
// one fed the same acked prefix, at any shard count. A directory written by a
// different floor plan, deployment, or seed refuses to load with a
// *wal.MismatchError; one written with a different shard count or in the
// legacy flat layout is refused by checkShardGuard. Shards with a quarantine
// marker come back quarantined (their logs are exempt from the lockstep cut)
// and the self-heal loop is scheduled for them.
func OpenSharded(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*Sharded, error) {
	e, err := NewSharded(plan, dep, cfg)
	if err != nil {
		return nil, err
	}
	d := cfg.Durability
	if !d.Enabled() {
		return e, nil
	}
	sid, err := cfg.StreamID(plan, dep)
	if err != nil {
		return nil, err
	}
	e.streamID = sid
	fsys := d.fsys()
	if err := checkShardGuard(fsys, d.Dir, e.n); err != nil {
		return nil, err
	}
	markers, err := readQuarMarkers(fsys, d.Dir, e.n)
	if err != nil {
		return nil, err
	}
	// The engine never quarantines its last live shard (it fail-stops), so a
	// directory with every shard marked was left by an older build that did.
	// The shard marked at the highest sequence was the last one standing: its
	// log is the lockstep reference the others are behind, so it recovers as
	// live. Without a live reference the cut below would fall back to the
	// snapshot barrier and truncate acked records.
	if len(markers) == e.n {
		last := 0
		for i := 1; i < e.n; i++ {
			if markers[i] > markers[last] {
				last = i
			}
		}
		log.Printf("engine: every shard carries a quarantine marker; shard %d (seq %d) was the last live one and recovers as live", last, markers[last])
		if err := removeQuarMarker(fsys, d.Dir, last); err != nil {
			log.Printf("engine: remove quarantine marker for shard %d: %v", last, err)
		}
		delete(markers, last)
	}
	rec := RecoveryInfo{Enabled: true}

	// Pick the restore point: the highest snapshot sequence readable in the
	// router directory AND every non-quarantined shard directory. A snapshot
	// barrier writes the router file plus one per live shard at one sequence;
	// a crash mid-barrier (or a corrupt file) drops that sequence out of the
	// intersection and recovery replays more WAL. Marked shards are exempt
	// from the intersection — unless the shard holds its own snapshot at a
	// barrier NEWER than its quarantine seq, which proves a heal completed
	// its rejoin barrier and only the marker removal was lost (stale marker:
	// the shard is treated as live). A stream-identity mismatch is fatal,
	// not skippable.
	routerSnaps, err := wal.ListSnapshotsFS(fsys, d.Dir)
	if err != nil {
		return nil, err
	}
	shardSnapLists := make([][]wal.SnapshotInfo, e.n)
	shardSnapsAt := make([]map[uint64]string, e.n)
	for i := range shardSnapsAt {
		infos, err := wal.ListSnapshotsFS(fsys, shardDir(d.Dir, i))
		if err != nil {
			return nil, err
		}
		shardSnapLists[i] = infos
		m := make(map[uint64]string, len(infos))
		for _, si := range infos {
			m[si.Seq] = si.Path
		}
		shardSnapsAt[i] = m
	}
	var (
		snapSeq uint64
		rsnap   routerSnap
		ssnaps  map[int]shardSnap
		stale   map[int]bool
	)
	for ri := len(routerSnaps) - 1; ri >= 0 && !rec.SnapshotRestored; ri-- {
		seq := routerSnaps[ri].Seq
		_, payload, rerr := wal.ReadSnapshotFileFS(fsys, routerSnaps[ri].Path, sid)
		if rerr != nil {
			var mm *wal.MismatchError
			if errors.As(rerr, &mm) {
				return nil, rerr
			}
			rec.SnapshotsSkipped++
			continue
		}
		var rs routerSnap
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rs); derr != nil {
			rec.SnapshotsSkipped++
			continue
		}
		candidates := make(map[int]shardSnap, e.n)
		staleHere := make(map[int]bool)
		complete := true
		for i := 0; i < e.n && complete; i++ {
			qi, marked := markers[i]
			if marked && seq <= qi {
				continue // barrier predates the quarantine; shard exempt here
			}
			path, ok := shardSnapsAt[i][seq]
			if !ok {
				if marked {
					continue // quarantined when this barrier was written
				}
				complete = false
				break
			}
			_, spayload, serr := wal.ReadSnapshotFileFS(fsys, path, sid)
			if serr != nil {
				var mm *wal.MismatchError
				if errors.As(serr, &mm) {
					return nil, serr
				}
				if marked {
					continue
				}
				complete = false
				break
			}
			var ss shardSnap
			if derr := gob.NewDecoder(bytes.NewReader(spayload)).Decode(&ss); derr != nil {
				if marked {
					continue
				}
				complete = false
				break
			}
			candidates[i] = ss
			if marked {
				staleHere[i] = true // own snapshot past the quarantine seq: heal finished
			}
		}
		if !complete {
			rec.SnapshotsSkipped++
			continue
		}
		snapSeq, rsnap, ssnaps, stale = seq, rs, candidates, staleHere
		rec.SnapshotRestored = true
		rec.SnapshotSeq = seq
	}
	for i := range stale {
		log.Printf("engine: shard %d: stale quarantine marker (heal completed at or before seq %d); treating as live", i, snapSeq)
		if err := removeQuarMarker(fsys, d.Dir, i); err != nil {
			log.Printf("engine: remove stale quarantine marker for shard %d: %v", i, err)
		}
		delete(markers, i)
	}
	if rec.SnapshotRestored {
		e.tel.queries[KindRange].Store(int64(rsnap.RangeQueries))
		e.tel.queries[KindKNN].Store(int64(rsnap.KNNQueries))
		for i, sh := range e.shards {
			ss, ok := ssnaps[i]
			if !ok {
				continue // marked shard: restored from its own base below
			}
			sh.restoreShard(&ss)
		}
		e.walSeq = snapSeq
	}

	// Open every shard log, collecting decoded batches above each shard's
	// own base: the barrier seq for live shards, the shard's newest readable
	// snapshot at or below min(barrier, quarantine seq) for marked shards.
	// Above its base each log must be gapless. A marked shard whose log
	// cannot be opened stays quarantined (frozen empty in memory) instead of
	// failing the whole engine — its disk may still be broken, and healing
	// retries from disk anyway.
	closeAll := func() {
		for _, l := range e.wals {
			if l != nil {
				l.Close()
			}
		}
		e.wals = nil
	}
	e.wals = make([]*wal.Log, e.n)
	batches := make([][]wal.Batch, e.n)
	base := make([]uint64, e.n)
	qcause := make(map[int]error)
	for i := 0; i < e.n; i++ {
		base[i] = snapSeq
		qi, marked := markers[i]
		if marked {
			// Find the marked shard's own restore base and load it now; the
			// solo catch-up and lockstep participation below bring it to qi.
			limit := snapSeq
			if qi < limit {
				limit = qi
			}
			base[i] = 0
			found := false
			lists := shardSnapLists[i]
			for k := len(lists) - 1; k >= 0 && !found; k-- {
				if lists[k].Seq > limit {
					continue
				}
				_, spayload, serr := wal.ReadSnapshotFileFS(fsys, lists[k].Path, sid)
				if serr != nil {
					var mm *wal.MismatchError
					if errors.As(serr, &mm) {
						return nil, serr
					}
					continue
				}
				var ss shardSnap
				if derr := gob.NewDecoder(bytes.NewReader(spayload)).Decode(&ss); derr != nil {
					continue
				}
				e.shards[i].restoreShard(&ss)
				base[i] = lists[k].Seq
				found = true
			}
		}
		shardBase := base[i]
		expected := shardBase + 1
		l, report, oerr := wal.Open(shardDir(d.Dir, i),
			wal.Options{StreamID: sid, SegmentBytes: d.SegmentBytes, FS: d.FS},
			func(seq uint64, payload []byte) error {
				if seq <= shardBase {
					return nil
				}
				if seq != expected {
					return fmt.Errorf("engine: shard %d WAL gap: restore base is seq %d but next record is %d (want %d)",
						i, shardBase, seq, expected)
				}
				b, derr := wal.DecodeBatch(payload)
				if derr != nil {
					return derr
				}
				batches[i] = append(batches[i], b)
				expected++
				return nil
			})
		if oerr != nil {
			if marked {
				log.Printf("engine: shard %d: cannot open quarantined log (%v); shard stays quarantined", i, oerr)
				qcause[i] = oerr
				batches[i] = nil
				continue
			}
			closeAll()
			return nil, oerr
		}
		if marked && l.LastSeq() > qi {
			// The log extends past the recorded quarantine point but no
			// rejoin barrier survived: the shard's base state for those
			// records is unrecoverable. Keep the shard quarantined and its
			// log untouched for inspection (walctl) rather than guessing.
			log.Printf("engine: shard %d: log ends at seq %d, past its quarantine seq %d, with no readable rejoin barrier; shard stays quarantined", i, l.LastSeq(), qi)
			qcause[i] = fmt.Errorf("engine: shard %d log past quarantine seq %d with no rejoin barrier", i, qi)
			batches[i] = nil
			l.Close()
			continue
		}
		e.wals[i] = l
		rec.Corrupt = rec.Corrupt || report.Corrupt
		rec.TruncatedBytes += report.TruncatedBytes
		rec.SegmentsRemoved += report.RemovedSegments
	}

	// The lockstep cut: live shards replay to the shortest LIVE log. Marked
	// shards are exempt — their effective quarantine seq is capped to both
	// their actual log end (an unsynced tail may have torn off) and the cut.
	liveMin := -1
	for i := 0; i < e.n; i++ {
		if _, marked := markers[i]; marked {
			continue
		}
		if liveMin < 0 || len(batches[i]) < liveMin {
			liveMin = len(batches[i])
		}
	}
	walSeqFinal := snapSeq + uint64(liveMin)
	qeff := make(map[int]uint64)
	for i, qi := range markers {
		eff := qi
		if e.wals[i] != nil {
			if ls := e.wals[i].LastSeq(); ls < eff {
				eff = ls
			}
		} else {
			eff = base[i] // unopenable log: frozen at its restored base
		}
		if walSeqFinal < eff {
			eff = walSeqFinal
		}
		qeff[i] = eff
	}

	// Solo catch-up: marked shards replay their own records up to
	// min(barrier, qeff) alone. The cache still invalidates on ENTER, exactly
	// like the live path.
	for i := range markers {
		limit := snapSeq
		if qeff[i] < limit {
			limit = qeff[i]
		}
		sh := e.shards[i]
		for k := range batches[i] {
			seq := base[i] + uint64(k) + 1
			if seq > limit {
				break
			}
			b := &batches[i][k]
			sh.collectSecond(b.Time, b.Readings)
			rec.ReadingsReplayed += len(b.Readings)
		}
	}

	// Lockstep replay: each sequence is one flushed second, applied through
	// the same path live ingestion uses. Marked shards participate for the
	// seconds their log covers (seq <= qeff); beyond that the second goes on
	// their missed list for healing to fast-forward.
	missed := make(map[int][]model.Time)
	var lastMeta *wal.Batch
	for k := 0; k < liveMin; k++ {
		seq := snapSeq + uint64(k) + 1
		parts := make([][]model.RawReading, e.n)
		active := make([]bool, e.n)
		var raws []model.RawReading
		var t model.Time
		var ref *wal.Batch
		for i := 0; i < e.n; i++ {
			if _, marked := markers[i]; marked {
				if seq > qeff[i] {
					continue
				}
				idx := int(seq - base[i] - 1)
				if idx < 0 || idx >= len(batches[i]) {
					continue
				}
				b := &batches[i][idx]
				if ref != nil && b.Time != ref.Time {
					closeAll()
					return nil, fmt.Errorf("engine: shard WALs disagree at seq %d: second %d vs shard %d's %d",
						seq, ref.Time, i, b.Time)
				}
				parts[i], active[i] = b.Readings, true
				if ref == nil {
					ref, t = b, b.Time
				}
				raws = append(raws, b.Readings...)
				rec.ReadingsReplayed += len(b.Readings)
				continue
			}
			b := &batches[i][k]
			if ref != nil && b.Time != ref.Time {
				closeAll()
				return nil, fmt.Errorf("engine: shard WALs disagree at seq %d: second %d vs shard %d's %d",
					seq, ref.Time, i, b.Time)
			}
			parts[i], active[i] = b.Readings, true
			if ref == nil {
				ref, t = b, b.Time
			}
			raws = append(raws, b.Readings...)
			rec.ReadingsReplayed += len(b.Readings)
			lastMeta = b
		}
		if ref == nil {
			continue
		}
		e.applyPartsMasked(t, parts, raws, active)
		for i := range markers {
			if seq > qeff[i] {
				missed[i] = append(missed[i], t)
			}
		}
		rec.RecordsReplayed++
	}
	e.walSeq = walSeqFinal

	// Cut ragged tails back to the common sequence so the next second
	// appends cleanly everywhere. Marked shards whose log outruns the live
	// cut lose that tail too: those seconds were truncated from the live
	// shards, so keeping a one-shard remnant would desynchronize the heal.
	for i, l := range e.wals {
		if l == nil || l.LastSeq() <= e.walSeq {
			continue
		}
		cut, terr := l.TruncateTo(e.walSeq)
		rec.TruncatedBytes += cut
		rec.Corrupt = true
		if terr != nil {
			closeAll()
			return nil, fmt.Errorf("engine: truncate shard %d ragged tail: %w", i, terr)
		}
	}
	rec.LastSeq = e.walSeq

	// Position the reorder buffer at the recovered stream point. The last
	// replayed record's view wins over the snapshot's; restoring its exact
	// watermark (rather than re-deriving maxSeen-horizon) errs toward
	// re-accepting a retransmission of a flushed-but-unacked crash-window
	// second instead of refusing it as late.
	switch {
	case lastMeta != nil:
		e.reorder.Restore(lastMeta.Time, lastMeta.MaxSeen, lastMeta.Drops, lastMeta.Forced)
	case rec.SnapshotRestored && rsnap.ReorderStarted:
		e.reorder.Restore(rsnap.Watermark, rsnap.MaxSeen, rsnap.Drops, rsnap.Forced)
	}

	// Re-quarantine the marked shards: seal their logs, merge the missed
	// lists (the router snapshot's record covers the window below the
	// barrier; replay rebuilt everything above it), and schedule healing.
	for i, qi := range markers {
		q := &quarInfo{
			seq:     qeff[i],
			cause:   fmt.Errorf("engine: recovered quarantine marker (seq %d)", qi),
			nextTry: time.Now().Add(d.healBaseDelay()),
		}
		if c, ok := qcause[i]; ok {
			q.cause = c
		}
		for _, qr := range rsnap.Quarantined {
			if qr.Shard == i && qr.Seq == qi {
				q.missed = append(q.missed, qr.Missed...)
				break
			}
		}
		q.missed = append(q.missed, missed[i]...)
		if l := e.wals[i]; l != nil {
			l.Close()
			e.wals[i] = nil
		}
		e.quar[i] = q
		e.shardState[i].Store(shardQuarantined)
		e.shards[i].shardTel.quarantined.Set(1)
		if qeff[i] != qi {
			if werr := writeQuarMarker(fsys, d.Dir, i, qeff[i]); werr != nil {
				log.Printf("engine: rewrite quarantine marker for shard %d: %v", i, werr)
			}
		}
		log.Printf("engine: shard %d recovered quarantined at seq %d (%d missed seconds); self-heal scheduled", i, qeff[i], len(q.missed))
	}

	e.recovery = rec
	e.lastSync = time.Now()
	e.tel.walReplayed.Set(uint64(rec.RecordsReplayed))
	e.tel.walTruncatedBytes.Set(uint64(rec.TruncatedBytes))
	e.tel.walSnapshotsSkipped.Set(uint64(rec.SnapshotsSkipped))
	if rec.Corrupt {
		log.Printf("engine: repaired sharded WAL in %s: %d bytes truncated, %d segments removed",
			d.Dir, rec.TruncatedBytes, rec.SegmentsRemoved)
	}
	if len(markers) > 0 {
		e.ingestMu.Lock()
		e.startHealer()
		e.ingestMu.Unlock()
	}
	if d.SnapshotEvery > 0 && rec.RecordsReplayed >= d.SnapshotEvery {
		e.ingestMu.Lock()
		e.writeSnapshots()
		e.ingestMu.Unlock()
	}
	return e, nil
}

// logStep runs op on the log of every live shard and then, once all of them
// have returned, calls done with each one's outcome, in shard order. The ops
// run side by side: each shard has its own log file and encode buffer, and a
// step spends its time waiting in write or fsync, so the waits overlap instead
// of adding up. done runs serially because what follows a failure does not
// tolerate interleaving: whether a failing shard is quarantined or is the
// last live one (a fail-stop) depends on the shards judged before it, and the
// quarantine marker, the typed drop and the missed-second list are router
// state under ingestMu. Called under ingestMu.
func (e *Sharded) logStep(op func(i int, l *wal.Log) error, done func(i int, err error)) {
	ran := e.stepRan[:0]
	for i, l := range e.wals {
		if l != nil && e.shardState[i].Load() == shardLive {
			ran = append(ran, i)
		}
	}
	e.stepRan = ran
	if len(ran) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, i := range ran[1:] {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.stepErrs[i] = op(i, e.wals[i])
		}(i)
	}
	e.stepErrs[ran[0]] = op(ran[0], e.wals[ran[0]]) // the first one on this goroutine
	wg.Wait()
	for _, i := range ran {
		done(i, e.stepErrs[i])
	}
}

// appendWAL logs one flushed second to every live shard at the same sequence
// number (called under ingestMu, before the second is applied), together
// with the reorder buffer's position and drop accounting, so recovery
// restores Stats exactly. Transient failures are retried with backoff; a
// shard whose append still fails is quarantined — its part becomes a typed
// drop — and the remaining shards continue. The sequence only advances if at
// least one shard got the record.
func (e *Sharded) appendWAL(t model.Time, parts [][]model.RawReading) {
	wm, _ := e.reorder.Watermark()
	ms, _ := e.reorder.MaxSeen()
	// The incremental flush contract guarantees the watermark equals the
	// second being flushed here; if that ever breaks, the record would lie
	// about the recovery position, so refuse to write it.
	if wm != t {
		e.failWAL(fmt.Errorf("engine: flush watermark %d disagrees with flushed second %d", wm, t))
		return
	}
	forced := e.reorder.ForcedFlushes()
	drops := e.reorder.Drops()
	tr := e.curTrace
	appended := false
	e.logStep(func(i int, l *wal.Log) error {
		b := wal.Batch{
			Time:     t,
			MaxSeen:  ms,
			Forced:   forced,
			Drops:    drops,
			Readings: parts[i],
		}
		buf := b.Encode(e.walBufs[i][:0])
		e.walBufs[i] = buf
		wstart := time.Now()
		err := retryTransient(e.cfg.Durability.Retry, e.tel, tr, i,
			e.streamID^e.walSeq^uint64(i)<<32, l.ResetTail, func() error {
				return l.Append(e.walSeq+1, buf)
			})
		if err == nil {
			e.shards[i].shardTel.walAppend.Observe(time.Since(wstart).Seconds())
			tr.Since("wal-append", i, wstart)
		}
		return err
	}, func(i int, err error) {
		if err != nil {
			e.quarantineShard(i, err)
			e.dropPart(i, t, parts)
			return
		}
		appended = true
	})
	if !appended {
		return
	}
	e.walSeq++
	e.sinceSnap++
	e.tel.walRecords.Inc()
}

// syncWAL applies the fsync policy across every live shard log; force
// bypasses the interval pacing (flushes, snapshots, shutdown). Transient
// failures are retried; a shard whose fsync still fails is quarantined and
// the rest continue. Only a fail-stopped engine reports an error, and that
// error is sticky. Called under ingestMu.
func (e *Sharded) syncWAL(force bool) error {
	if e.wals == nil || e.walErr != nil {
		return e.walErr
	}
	switch e.cfg.Durability.Fsync {
	case wal.SyncOff:
		if !force {
			return nil
		}
	case wal.SyncInterval:
		if !force && time.Since(e.lastSync) < e.cfg.Durability.fsyncInterval() {
			return nil
		}
	}
	tr := e.curTrace
	e.logStep(func(i int, l *wal.Log) error {
		fstart := time.Now()
		err := retryTransient(e.cfg.Durability.Retry, e.tel, tr, i,
			e.streamID^e.walSeq^uint64(i)<<32, nil, l.Sync)
		if err == nil {
			e.shards[i].shardTel.walFsync.Observe(time.Since(fstart).Seconds())
			tr.Since("wal-fsync", i, fstart)
		}
		return err
	}, func(i int, err error) {
		if err != nil {
			// The appended second IS in this shard's log; quarantine at the
			// current sequence with nothing missed yet.
			e.quarantineShard(i, err)
		}
	})
	if e.walErr != nil {
		return e.walErr
	}
	e.lastSync = time.Now()
	e.tel.walSyncs.Inc()
	return nil
}

func (e *Sharded) failWAL(err error) {
	if e.walErr == nil {
		e.walErr = fmt.Errorf("engine: WAL failed, ingestion stopped: %w", err)
		e.tel.walErrors.Inc()
		log.Printf("%v", e.walErr)
	}
}

// maybeSnapshot schedules the snapshot barrier once enough seconds
// accumulated. Called under ingestMu from flushSecond.
func (e *Sharded) maybeSnapshot() {
	if e.wals == nil || e.walErr != nil {
		return
	}
	if n := e.cfg.Durability.SnapshotEvery; n > 0 && e.sinceSnap >= n {
		e.writeSnapshots()
	}
}

// snapFailed counts one failed snapshot attempt and paces retries: the next
// few flushed seconds retry immediately (sinceSnap stays over the threshold),
// then the schedule backs off a full SnapshotEvery window so a persistently
// broken snapshot store doesn't turn every flush into a doomed write. The
// WALs still have everything, so nothing is sticky — recovery just replays
// more.
func (e *Sharded) snapFailed(err error) {
	e.tel.walSnapshotErrors.Inc()
	e.tel.snapshotFailures.Inc()
	e.snapFails++
	if e.snapFails >= snapFailBackoff {
		e.sinceSnap = 0
		e.snapFails = 0
	}
	log.Printf("%v", err)
}

// writeSnapshots writes the snapshot barrier: all live logs synced, then the
// router snapshot and every live shard's snapshot at the same sequence.
// Quarantined shards are skipped — the router snapshot records their seq and
// missed seconds instead, so a crash mid-quarantine still heals exactly.
// Failures are counted and paced but not sticky (the WALs still hold
// everything; a partial barrier never enters recovery's intersection), and
// pruning is frozen entirely while any shard is out: healing needs the
// quarantined shard's old snapshots and segments. Called under ingestMu.
func (e *Sharded) writeSnapshots() error {
	wm, started := e.reorder.Watermark()
	ms, _ := e.reorder.MaxSeen()
	ranges, knns := e.tel.queriesCounted()
	rsnap := routerSnap{
		RangeQueries:   ranges,
		KNNQueries:     knns,
		ReorderStarted: started,
		Watermark:      wm,
		MaxSeen:        ms,
		Drops:          e.reorder.Drops(),
		Forced:         e.reorder.ForcedFlushes(),
	}
	degraded := false
	for i := 0; i < e.n; i++ {
		if e.shardState[i].Load() == shardLive || i == e.rejoining {
			continue
		}
		degraded = true
		if q := e.quar[i]; q != nil {
			rsnap.Quarantined = append(rsnap.Quarantined, quarRecord{
				Shard:  i,
				Seq:    q.seq,
				Missed: append([]model.Time(nil), q.missed...),
			})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rsnap); err != nil {
		err = fmt.Errorf("engine: encode router snapshot: %w", err)
		e.snapFailed(err)
		return err
	}
	// An unsynced tail record would let a surviving snapshot claim coverage
	// of a second a log lost; sync first so the claim is always true.
	if err := e.syncWAL(true); err != nil {
		return err
	}
	d := e.cfg.Durability
	fsys := d.fsys()
	if _, err := wal.WriteSnapshotFS(fsys, d.Dir, e.streamID, e.walSeq, buf.Bytes()); err != nil {
		err = fmt.Errorf("engine: write router snapshot: %w", err)
		e.snapFailed(err)
		return err
	}
	for i, sh := range e.shards {
		if e.shardState[i].Load() != shardLive && i != e.rejoining {
			continue
		}
		e.shardMu[i].Lock()
		hits, misses := sh.cache.Stats()
		ssnap := shardSnap{
			Stats:        sh.stats,
			Collector:    sh.col.Snapshot(),
			CacheEntries: sh.cache.Dump(),
			CacheHits:    hits,
			CacheMisses:  misses,
		}
		e.shardMu[i].Unlock()
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(&ssnap); err != nil {
			err = fmt.Errorf("engine: encode shard %d snapshot: %w", i, err)
			e.snapFailed(err)
			return err
		}
		if _, err := wal.WriteSnapshotFS(fsys, shardDir(d.Dir, i), e.streamID, e.walSeq, buf.Bytes()); err != nil {
			err = fmt.Errorf("engine: write shard %d snapshot: %w", i, err)
			e.snapFailed(err)
			return err
		}
	}
	e.sinceSnap = 0
	e.snapFails = 0
	e.tel.walSnapshots.Inc()
	if degraded {
		return nil // freeze pruning: healing needs the history below the barrier
	}
	if _, _, err := wal.PruneSnapshotsFS(fsys, d.Dir, d.keepSnapshots()); err != nil {
		log.Printf("engine: prune router snapshots: %v", err)
		return nil
	}
	for i, l := range e.wals {
		if l == nil {
			continue
		}
		oldest, _, err := wal.PruneSnapshotsFS(fsys, shardDir(d.Dir, i), d.keepSnapshots())
		if err != nil {
			log.Printf("engine: prune shard %d snapshots: %v", i, err)
			return nil
		}
		if _, err := l.PruneSegments(oldest); err != nil {
			log.Printf("engine: prune shard %d segments: %v", i, err)
		}
	}
	return nil
}

// Close shuts the durability layer down cleanly: the heal loop stopped,
// buffered seconds flushed and logged, a final snapshot barrier, all live
// logs synced and closed. Quarantined shards' markers stay on disk so the
// next OpenSharded resumes their healing. No-op for engines built with
// NewSharded. The engine must not be used after Close.
func (e *Sharded) Close() error {
	e.stopHealer()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.wals == nil {
		return nil
	}
	e.reorder.FlushAll()
	if e.walErr == nil {
		e.writeSnapshots()
	}
	syncErr := e.syncWAL(true)
	var closeErr error
	for _, l := range e.wals {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	e.wals = nil
	if e.walErr != nil && syncErr == nil {
		syncErr = e.walErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
