package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Snapshot file layout: a 36-byte header (magic "RSNP", format version,
// stream ID, last covered record seq, payload length, payload CRC-32)
// followed by the opaque payload the engine encoded. Snapshots are written
// to a temp file, fsynced, and renamed into place, so a crash mid-write
// never leaves a readable-but-partial snapshot under the final name.

const snapHeaderSize = 4 + 4 + 8 + 8 + 8 + 4

// SnapshotInfo describes one snapshot file on disk.
type SnapshotInfo struct {
	Path string
	Seq  uint64
	Size int64
}

// WriteSnapshot atomically writes a snapshot covering every record up to and
// including seq.
func WriteSnapshot(dir string, streamID, seq uint64, payload []byte) (string, error) {
	return WriteSnapshotFS(OS, dir, streamID, seq, payload)
}

// WriteSnapshotFS is WriteSnapshot through an injectable filesystem.
func WriteSnapshotFS(fsys FS, dir string, streamID, seq uint64, payload []byte) (string, error) {
	fsys = fsOrOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("wal: create dir: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("wal: create snapshot: %w", err)
	}
	var hdr [snapHeaderSize]byte
	copy(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], streamID)
	binary.LittleEndian.PutUint64(hdr[16:24], seq)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[32:36], crc32.ChecksumIEEE(payload))
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return "", fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return "", fmt.Errorf("wal: commit snapshot: %w", err)
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := fsys.OpenFile(dir, os.O_RDONLY, 0); err == nil {
		d.Sync()
		d.Close()
	}
	return final, nil
}

// ListSnapshots returns the snapshot files in dir, ascending by covered
// sequence number. Leftover temp files and unparsable names are ignored.
func ListSnapshots(dir string) ([]SnapshotInfo, error) {
	return ListSnapshotsFS(OS, dir)
}

// ListSnapshotsFS is ListSnapshots through an injectable filesystem.
func ListSnapshotsFS(fsys FS, dir string) ([]SnapshotInfo, error) {
	ents, err := fsOrOS(fsys).ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list snapshots: %w", err)
	}
	var out []SnapshotInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		var seq uint64
		core := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
		if _, err := fmt.Sscanf(core, "%d", &seq); err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, SnapshotInfo{Path: filepath.Join(dir, name), Seq: seq, Size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// ReadSnapshotFile reads and verifies one snapshot file. A zero streamID in
// the file or an expected streamID of 0 is still checked: the caller passes
// the identity it requires and a mismatch returns *MismatchError. Corruption
// (bad magic, short file, CRC failure) returns an error that is NOT a
// MismatchError, so callers can fall back to an older snapshot.
func ReadSnapshotFile(path string, streamID uint64) (seq uint64, payload []byte, err error) {
	return ReadSnapshotFileFS(OS, path, streamID)
}

// ReadSnapshotFileFS is ReadSnapshotFile through an injectable filesystem.
func ReadSnapshotFileFS(fsys FS, path string, streamID uint64) (seq uint64, payload []byte, err error) {
	f, err := fsOrOS(fsys).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: open snapshot: %w", err)
	}
	defer f.Close()
	var hdr [snapHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("wal: snapshot %s: short header", path)
	}
	if string(hdr[0:4]) != snapMagic {
		return 0, nil, fmt.Errorf("wal: snapshot %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return 0, nil, fmt.Errorf("wal: snapshot %s: unsupported format version %d (want %d)", path, v, Version)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:16]); got != streamID {
		return 0, nil, &MismatchError{Path: path, Want: streamID, Got: got}
	}
	seq = binary.LittleEndian.Uint64(hdr[16:24])
	n := binary.LittleEndian.Uint64(hdr[24:32])
	if n > maxSnapshotPayload {
		return 0, nil, fmt.Errorf("wal: snapshot %s: implausible payload length %d", path, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return 0, nil, fmt.Errorf("wal: snapshot %s: short payload", path)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(hdr[32:36]) {
		return 0, nil, fmt.Errorf("wal: snapshot %s: payload CRC mismatch", path)
	}
	return seq, payload, nil
}

// maxSnapshotPayload bounds snapshot payloads against corrupt length fields.
const maxSnapshotPayload = 1 << 31

// PruneSnapshotsFS removes all but the newest keep snapshots through an
// injectable filesystem. It returns the covered seq of the oldest snapshot
// kept (0 when none remain), which is the safe bound for Log.PruneSegments:
// segments below it are redundant for every retained snapshot.
func PruneSnapshotsFS(fsys FS, dir string, keep int) (oldestKept uint64, removed int, err error) {
	fsys = fsOrOS(fsys)
	if keep < 1 {
		keep = 1
	}
	snaps, err := ListSnapshotsFS(fsys, dir)
	if err != nil {
		return 0, 0, err
	}
	for len(snaps) > keep {
		if err := fsys.Remove(snaps[0].Path); err != nil {
			return 0, removed, fmt.Errorf("wal: prune snapshot: %w", err)
		}
		snaps = snaps[1:]
		removed++
	}
	if len(snaps) > 0 {
		oldestKept = snaps[0].Seq
	}
	return oldestKept, removed, nil
}
