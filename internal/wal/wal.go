// Package wal implements the crash-safe durability substrate of the system:
// a segmented, CRC-checksummed write-ahead log of acked per-second reading
// batches, plus an atomic snapshot store, so a restarted process recovers by
// loading the newest snapshot and replaying the bounded WAL suffix instead of
// the full reading history.
//
// The package deals in framing and files only; the engine owns record
// semantics (what a batch means, what a snapshot payload contains). Both
// layers share one invariant: every byte that can be misread is covered by a
// CRC, and a torn or corrupt tail truncates the log — recovery never panics
// on bad input and never silently skips over it.
//
// On-disk layout (DESIGN.md §11):
//
//	<dir>/
//	  00000000000000000001.wal   segment, named by its first record's seq
//	  00000000000000004096.wal
//	  snap-00000000000000003000.snap
//
// Segment file = 16-byte header (magic "RWAL", format version, stream ID)
// followed by records. Record = 16-byte frame (payload length u32, CRC-32
// u32 over seq+payload, seq u64) + payload. Sequence numbers are assigned by
// the caller and must be strictly increasing across the whole log.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	segMagic  = "RWAL"
	snapMagic = "RSNP"
	// Version is the on-disk format version written to every segment and
	// snapshot header. Readers refuse other versions.
	Version = 1

	segHeaderSize = 16
	recHeaderSize = 16

	// maxPayload bounds a record's payload so a corrupt length field cannot
	// drive a multi-gigabyte allocation; anything larger is corruption.
	maxPayload = 64 << 20

	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
	DefaultSegmentBytes = 8 << 20
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before an append batch is acknowledged: an acked
	// batch survives any crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at a configurable wall-clock interval: a crash can
	// lose at most the last interval's acked batches.
	SyncInterval
	// SyncOff never fsyncs on the append path (the OS decides; Close still
	// syncs). Fastest, weakest.
	SyncOff
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag values "always", "interval", "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or off)", s)
	}
}

// MismatchError reports a stream-identity mismatch: the log or snapshot on
// disk was written for a different floor plan / deployment / seed than the
// one now opening it. Loading would silently mix incompatible state, so the
// open refuses instead.
type MismatchError struct {
	Path string
	Want uint64
	Got  uint64
}

// Error implements the error interface.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("wal: %s belongs to stream %016x, not %016x: refusing to load", e.Path, e.Got, e.Want)
}

// Options parameterizes Open.
type Options struct {
	// StreamID identifies the logical stream (the engine hashes floor plan,
	// deployment, and seed into it). Segments and snapshots carry it in their
	// headers; a mismatch fails Open with *MismatchError.
	StreamID uint64
	// SegmentBytes is the rotation threshold. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// FS is the filesystem the log reads and writes through. nil means the
	// real OS filesystem; tests inject fault-wrapped filesystems.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

// OpenReport describes what Open found and repaired.
type OpenReport struct {
	// Segments is the number of segment files present after repair.
	Segments int
	// Records is the number of valid records replayed.
	Records int
	// FirstSeq and LastSeq bound the replayed records (0 when none).
	FirstSeq, LastSeq uint64
	// TruncatedBytes counts bytes discarded from a torn or CRC-failing tail.
	TruncatedBytes int64
	// RemovedSegments counts whole segment files discarded because they
	// followed a mid-log corruption (their records are unreachable once the
	// log loses framing sync).
	RemovedSegments int
	// Corrupt reports whether any truncation was due to a CRC failure or
	// framing damage rather than a clean end of log.
	Corrupt bool
}

// Log is an open write-ahead log positioned for appending. It is not safe
// for concurrent use; the engine serializes access under its ingest lock.
type Log struct {
	dir     string
	opts    Options
	f       File
	size    int64 // size of the active segment file
	lastSeq uint64
	dirty   bool // appended since the last sync
	closed  bool
	// segments tracks (firstSeq, path) for every live segment, ascending.
	segments []segmentRef
}

type segmentRef struct {
	firstSeq uint64
	path     string
}

// Open recovers the log in dir and opens it for appending. Every valid
// record is passed to replay in order before Open returns; a torn or
// CRC-failing record truncates the log at the last valid boundary (the file
// is repaired in place, later orphaned segments are removed) so appends
// continue from a consistent state. A replay error aborts the open. A nil
// replay opens (and repairs) the log at the framing layer only — walctl uses
// this to run the server's tail repair without engine state.
//
// The directory is created if missing. An empty directory yields an empty
// log whose first Append creates the first segment.
func Open(dir string, opts Options, replay func(seq uint64, payload []byte) error) (*Log, OpenReport, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	var rep OpenReport
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, rep, err
	}

	l := &Log{dir: dir, opts: opts}
	// Replay segment by segment. The first bad record ends the log: the
	// active segment is truncated at the last valid boundary and any later
	// segments are unreachable (framing is lost), so they are removed.
	truncated := false
	for _, seg := range segs {
		if truncated {
			if err := fsys.Remove(seg.path); err != nil {
				return nil, rep, fmt.Errorf("wal: remove orphaned segment: %w", err)
			}
			rep.RemovedSegments++
			continue
		}
		// Verify stream identity BEFORE replaying anything from the segment:
		// records of a foreign stream must never reach the engine.
		sid, hdrOK, err := segmentStreamID(fsys, seg.path)
		if err != nil {
			return nil, rep, err
		}
		if hdrOK && sid != opts.StreamID {
			return nil, rep, &MismatchError{Path: seg.path, Want: opts.StreamID, Got: sid}
		}
		scan, err := ScanSegmentFS(fsys, seg.path, func(r Rec) error {
			if l.lastSeq != 0 && r.Seq <= l.lastSeq {
				// Sequence regression is framing damage, not a replayable
				// record; stop here like any other corruption.
				return errStopScan
			}
			if replay != nil {
				if err := replay(r.Seq, r.Payload); err != nil {
					return err
				}
			}
			if rep.Records == 0 {
				rep.FirstSeq = r.Seq
			}
			rep.Records++
			l.lastSeq = r.Seq
			return nil
		})
		if err != nil {
			return nil, rep, err
		}
		if scan.Tail > 0 || scan.Stopped {
			// Torn or corrupt tail: repair in place by truncating at the last
			// valid record boundary. Everything after (this tail plus any
			// later segment) is discarded and counted, never applied. A
			// segment with no surviving header is removed outright — an
			// empty file could not take appends.
			rep.TruncatedBytes += scan.Tail
			if scan.BadRecord {
				rep.Corrupt = true
			}
			if scan.EndOffset < segHeaderSize {
				if err := fsys.Remove(seg.path); err != nil {
					return nil, rep, fmt.Errorf("wal: remove unreadable segment: %w", err)
				}
				truncated = true
				continue
			}
			if err := fsys.Truncate(seg.path, scan.EndOffset); err != nil {
				return nil, rep, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			truncated = true
		}
		l.segments = append(l.segments, segmentRef{firstSeq: seg.firstSeq, path: seg.path})
	}
	rep.LastSeq = l.lastSeq
	rep.Segments = len(l.segments)

	// Position the append handle at the end of the last live segment.
	if n := len(l.segments); n > 0 {
		path := l.segments[n-1].path
		f, err := fsys.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return nil, rep, fmt.Errorf("wal: open active segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, rep, fmt.Errorf("wal: stat active segment: %w", err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, rep, fmt.Errorf("wal: seek active segment: %w", err)
		}
		l.f = f
		l.size = st.Size()
	}
	return l, rep, nil
}

// LastSeq returns the sequence number of the newest record (0 when empty).
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Segments returns the number of live segment files.
func (l *Log) Segments() int { return len(l.segments) }

// Append writes one record. seq must be strictly greater than every
// previously appended or recovered sequence number; the engine owns the
// numbering so it can continue a sequence that a snapshot advanced past a
// truncated log tail.
func (l *Log) Append(seq uint64, payload []byte) error {
	if l.closed {
		return fmt.Errorf("wal: append on closed log")
	}
	if seq <= l.lastSeq {
		return fmt.Errorf("wal: append seq %d not after last seq %d", seq, l.lastSeq)
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("wal: payload %d bytes exceeds limit %d", len(payload), maxPayload)
	}
	if l.f == nil || l.size+recHeaderSize+int64(len(payload)) > l.opts.SegmentBytes {
		if err := l.rotate(seq); err != nil {
			return err
		}
	}
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.ChecksumIEEE(hdr[8:16])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += recHeaderSize + int64(len(payload))
	l.lastSeq = seq
	l.dirty = true
	return nil
}

// ResetTail undoes the on-disk effect of a failed Append so the same record
// can be retried: the active segment is truncated back to the last durable
// record boundary and the write position is restored. Without it, retrying
// an append whose write failed part-way would frame a new record after
// garbage bytes — unreachable on replay yet acknowledged to the caller. It
// is a no-op when no segment is open.
func (l *Log) ResetTail() error {
	if l.closed || l.f == nil || len(l.segments) == 0 {
		return nil
	}
	path := l.segments[len(l.segments)-1].path
	if err := l.opts.FS.Truncate(path, l.size); err != nil {
		return fmt.Errorf("wal: reset tail: %w", err)
	}
	if _, err := l.f.Seek(l.size, 0); err != nil {
		return fmt.Errorf("wal: reset tail: %w", err)
	}
	return nil
}

// rotate closes the active segment (syncing it) and starts a new one whose
// file name is the next record's sequence number.
func (l *Log) rotate(firstSeq uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync before rotate: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close before rotate: %w", err)
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", firstSeq, segSuffix))
	f, err := l.opts.FS.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], l.opts.StreamID)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		// Remove the half-born segment so a retried rotate's O_EXCL create
		// does not trip over it.
		l.opts.FS.Remove(path)
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.f = f
	l.size = segHeaderSize
	l.segments = append(l.segments, segmentRef{firstSeq: firstSeq, path: path})
	l.dirty = true
	return nil
}

// Sync flushes appended records to stable storage. It is a no-op when
// nothing was appended since the last sync, so calling it per delivery under
// SyncAlways costs nothing on idle seconds.
func (l *Log) Sync() error {
	if l.closed || l.f == nil || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	return nil
}

// Close syncs and closes the log. The log cannot be used afterwards.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// PruneSegments removes segment files made fully redundant by a snapshot
// covering every record up to and including seq: a segment may go once every
// record after seq lives in a later segment. The active segment is never
// removed. It returns the number of files deleted.
func (l *Log) PruneSegments(seq uint64) (int, error) {
	removed := 0
	for len(l.segments) > 1 && l.segments[1].firstSeq <= seq+1 {
		if err := l.opts.FS.Remove(l.segments[0].path); err != nil {
			return removed, fmt.Errorf("wal: prune segment: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	return removed, nil
}

// SegmentInfo describes one segment file on disk.
type SegmentInfo struct {
	Path     string
	FirstSeq uint64
	Size     int64
}

type segEntry struct {
	firstSeq uint64
	path     string
}

// listSegments returns the segment files in dir, ascending by first
// sequence number. Files whose names do not parse are ignored.
func listSegments(fsys FS, dir string) ([]segEntry, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var out []segEntry
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(name, segSuffix), "%d", &first); err != nil {
			continue
		}
		out = append(out, segEntry{firstSeq: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].firstSeq < out[j].firstSeq })
	return out, nil
}

// SegmentInfos returns the segments of dir with their sizes, for inspection
// tools.
func SegmentInfos(dir string) ([]SegmentInfo, error) {
	return SegmentInfosFS(OS, dir)
}

// SegmentInfosFS is SegmentInfos through an injectable filesystem.
func SegmentInfosFS(fsys FS, dir string) ([]SegmentInfo, error) {
	fsys = fsOrOS(fsys)
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(segs))
	for _, s := range segs {
		st, err := fsys.Stat(s.path)
		if err != nil {
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		out = append(out, SegmentInfo{Path: s.path, FirstSeq: s.firstSeq, Size: st.Size()})
	}
	return out, nil
}

// TruncateTo discards every record with sequence number greater than seq,
// leaving the log positioned so the next Append continues at seq+1. The
// sharded engine uses it to even out ragged shard logs after a crash
// between the per-shard appends of one flushed second: the shards that got
// further are cut back to the last second every shard holds. It returns the
// number of bytes removed.
func (l *Log) TruncateTo(seq uint64) (int64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: truncate on closed log")
	}
	if seq >= l.lastSeq {
		return 0, nil
	}
	// Close the append handle; it is re-opened on the surviving tail.
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync before truncate: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return 0, fmt.Errorf("wal: close before truncate: %w", err)
		}
		l.f = nil
	}
	var removed int64
	// Only the last surviving segment can straddle seq (any earlier one ends
	// before its successor's firstSeq <= seq), so walk backwards: drop whole
	// segments past seq, then cut the straddling one at the record boundary.
	for len(l.segments) > 0 {
		ref := l.segments[len(l.segments)-1]
		var cut int64
		var lastKept uint64
		scan, err := ScanSegmentFS(l.opts.FS, ref.path, func(r Rec) error {
			if r.Seq > seq {
				return errStopScan
			}
			cut = r.End
			lastKept = r.Seq
			return nil
		})
		if err != nil {
			return removed, err
		}
		if lastKept == 0 {
			// No record at or below seq survives here; remove the segment
			// (header included — the whole file leaves the disk).
			removed += scan.FileSize
			if err := l.opts.FS.Remove(ref.path); err != nil {
				return removed, fmt.Errorf("wal: remove segment: %w", err)
			}
			l.segments = l.segments[:len(l.segments)-1]
			continue
		}
		if cut < scan.FileSize {
			removed += scan.FileSize - cut
			if err := l.opts.FS.Truncate(ref.path, cut); err != nil {
				return removed, fmt.Errorf("wal: truncate segment: %w", err)
			}
		}
		l.lastSeq = lastKept
		break
	}
	if len(l.segments) == 0 {
		// Everything after seq is gone and nothing before it remains on
		// disk (snapshots cover it); appends continue from seq.
		l.lastSeq = seq
		l.size = 0
		l.dirty = false
		return removed, nil
	}
	// Re-open the append handle at the end of the surviving segment.
	path := l.segments[len(l.segments)-1].path
	f, err := l.opts.FS.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return removed, fmt.Errorf("wal: open active segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return removed, fmt.Errorf("wal: stat active segment: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return removed, fmt.Errorf("wal: seek active segment: %w", err)
	}
	l.f = f
	l.size = st.Size()
	l.dirty = false
	return removed, nil
}
