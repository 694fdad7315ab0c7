package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ingest"
	"repro/internal/model"
)

// recBatch is the payload type byte of a batch record. The single byte
// leaves room for future record kinds (membership changes, shard moves)
// without a format bump.
const recBatch = 1

// Batch is the payload of one WAL record: a flushed second of accepted raw
// readings, plus the reorder buffer's position and cumulative drop
// accounting at the moment the second was acked. Embedding the accounting
// makes recovered Stats exact — the drops describing input that never became
// an acked record (late, duplicate, garbage) would otherwise vanish with the
// process.
type Batch struct {
	// Time is the flushed second.
	Time model.Time
	// MaxSeen is the newest delivered batch second when this record was
	// appended (the watermark equals Time at that point).
	MaxSeen model.Time
	// Forced is the reorder buffer's cumulative forced-flush count.
	Forced int
	// Drops is the reorder buffer's cumulative drop accounting.
	Drops ingest.Drops
	// Readings are the accepted raw readings of the second.
	Readings []model.RawReading
}

// Encode appends the batch's binary encoding (the record payload) to dst.
func (b *Batch) Encode(dst []byte) []byte {
	dst = append(dst, recBatch)
	var w [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		dst = append(dst, w[:]...)
	}
	word(uint64(b.Time))
	word(uint64(b.MaxSeen))
	word(uint64(b.Forced))
	word(uint64(b.Drops.LateBatches))
	word(uint64(b.Drops.LateReadings))
	word(uint64(b.Drops.DuplicateDeliveries))
	word(uint64(b.Drops.DuplicateReadings))
	word(uint64(b.Drops.MisstampedReadings))
	word(uint64(b.Drops.InvalidReadings))
	word(uint64(b.Drops.GapSeconds))
	return AppendReadings(dst, b.Readings)
}

// AppendReadings appends raw readings in the log's layout: a little-endian
// uint32 count, then per reading three little-endian uint64 words (object,
// reader, time). The cluster's peer RPC carries forwarded sub-batches in the
// same layout.
func AppendReadings(dst []byte, rs []model.RawReading) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs)))
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Object))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Reader))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Time))
	}
	return dst
}

// DecodeReadings parses what AppendReadings wrote from the front of p and
// returns the bytes after it. The count is checked against the bytes present
// before anything is allocated; no reading decodes to a nil slice.
func DecodeReadings(p []byte) (rs []model.RawReading, rest []byte, err error) {
	if len(p) < 4 {
		return nil, p, fmt.Errorf("wal: reading count truncated (%d bytes)", len(p))
	}
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(len(p)) < uint64(n)*24 {
		return nil, p, fmt.Errorf("wal: reading count %d disagrees with %d payload bytes", n, len(p))
	}
	if n > 0 {
		rs = make([]model.RawReading, n)
		for i := range rs {
			rs[i].Object = model.ObjectID(binary.LittleEndian.Uint64(p))
			rs[i].Reader = model.ReaderID(binary.LittleEndian.Uint64(p[8:]))
			rs[i].Time = model.Time(binary.LittleEndian.Uint64(p[16:]))
			p = p[24:]
		}
	}
	return rs, p, nil
}

// DecodeBatch parses a record payload produced by Encode. The payload is
// CRC-verified by the framing layer before it gets here, so a decode failure
// means a format error (wrong type byte, truncated encoder bug), not disk
// corruption.
func DecodeBatch(p []byte) (Batch, error) {
	var b Batch
	if len(p) < 1 || p[0] != recBatch {
		return b, fmt.Errorf("wal: not a batch record (type %d)", typeOf(p))
	}
	p = p[1:]
	need := 8*10 + 4
	if len(p) < need {
		return b, fmt.Errorf("wal: batch record too short (%d bytes)", len(p))
	}
	word := func() uint64 {
		v := binary.LittleEndian.Uint64(p[:8])
		p = p[8:]
		return v
	}
	b.Time = model.Time(word())
	b.MaxSeen = model.Time(word())
	b.Forced = int(word())
	b.Drops.LateBatches = int(word())
	b.Drops.LateReadings = int(word())
	b.Drops.DuplicateDeliveries = int(word())
	b.Drops.DuplicateReadings = int(word())
	b.Drops.MisstampedReadings = int(word())
	b.Drops.InvalidReadings = int(word())
	b.Drops.GapSeconds = int(word())
	rs, rest, err := DecodeReadings(p)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("wal: batch record has %d bytes after its readings", len(rest))
	}
	b.Readings = rs
	return b, err
}

func typeOf(p []byte) int {
	if len(p) == 0 {
		return -1
	}
	return int(p[0])
}
