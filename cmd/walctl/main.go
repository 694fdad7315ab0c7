// Command walctl inspects and repairs a server data directory (WAL segments
// plus engine snapshots) offline. It never needs the server's floor plan: it
// works at the framing layer the wal package defines, decoding batch payloads
// opportunistically for display.
//
// Both layouts are understood: a single engine's flat directory, and a
// sharded engine's root (detected by its SHARDS guard file), which holds
// router snapshots, optional quarantine markers, and one shard-NNNN/
// subdirectory per shard. inspect and verify walk every shard of a sharded
// root; truncate and dump operate on one log, so point them at a shard
// subdirectory.
//
// Usage:
//
//	walctl inspect <dir>            # list segments and snapshots with seq ranges
//	walctl verify <dir>             # scan every record's CRC; exit 1 on damage
//	walctl truncate <dir>           # cut torn/corrupt tails in place (what the
//	                                # server does on startup, made explicit)
//	walctl dump <dir> [-n 10]       # print the last n records' decoded batches
//
// verify and inspect are read-only. truncate modifies files and prints every
// repair it performs; run verify first to see what it would do.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/engine"
	"repro/internal/wal"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 2 {
		usage()
		os.Exit(2)
	}
	cmd, dir := flag.Arg(0), flag.Arg(1)
	var err error
	switch cmd {
	case "inspect":
		err = inspect(dir)
	case "verify":
		err = verify(dir)
	case "truncate":
		if n := shardCount(dir); n > 0 {
			err = fmt.Errorf("%s is a sharded data directory (%d shards); truncate one log at a time: walctl truncate %s", dir, n, engine.ShardDir(dir, 0))
			break
		}
		err = truncate(dir)
	case "dump":
		n := 10
		if flag.NArg() > 2 {
			if _, serr := fmt.Sscanf(flag.Arg(2), "%d", &n); serr != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "walctl: bad record count %q\n", flag.Arg(2))
				os.Exit(2)
			}
		}
		if sc := shardCount(dir); sc > 0 {
			err = fmt.Errorf("%s is a sharded data directory (%d shards); dump one log at a time: walctl dump %s", dir, sc, engine.ShardDir(dir, 0))
			break
		}
		err = dump(dir, n)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "walctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: walctl <command> <data-dir> [args]

commands:
  inspect   list segments and snapshots with sequence ranges (read-only;
            walks every shard of a sharded directory)
  verify    scan every record CRC, report damage; exit 1 if any (read-only;
            walks every shard of a sharded directory)
  truncate  repair torn/corrupt tails in place (one log: for sharded
            directories point at a shard-NNNN subdirectory)
  dump      print the last N records' decoded batches (default 10; one log)
`)
}

// shardCount is the shard count a sharded engine pins its data directory
// with. 0 means a flat (single-engine) directory.
func shardCount(dir string) int {
	n, err := engine.ShardCount(wal.OS, dir)
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

// quarantinedShards lists the shard indexes with a quarantine marker, with
// the seq each marker records.
func quarantinedShards(dir string, n int) map[int]string {
	marks, _ := engine.QuarantineMarkers(wal.OS, dir, n) // unreadable: none shown, as with no marker
	out := make(map[int]string, len(marks))
	for i, seq := range marks {
		out[i] = strconv.FormatUint(seq, 10)
	}
	return out
}

// inspect lists segments (with a scan per segment for seq ranges) and
// snapshots. It is read-only and tolerant: damaged segments are listed with
// their damage, not skipped. Sharded directories are walked shard by shard.
func inspect(dir string) error {
	n := shardCount(dir)
	if n == 0 {
		return inspectDir(dir, "")
	}
	fmt.Printf("sharded data directory: %d shard(s)\n", n)
	quar := quarantinedShards(dir, n)
	snaps, err := wal.ListSnapshots(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%d router snapshot(s)\n", len(snaps))
	for _, sn := range snaps {
		fmt.Printf("  %-28s %8d bytes  seq=%d\n", filepath.Base(sn.Path), sn.Size, sn.Seq)
	}
	for i := 0; i < n; i++ {
		state := ""
		if seq, ok := quar[i]; ok {
			state = fmt.Sprintf("  QUARANTINED at seq %s", seq)
		}
		fmt.Printf("shard %d%s\n", i, state)
		if err := inspectDir(engine.ShardDir(dir, i), "  "); err != nil {
			return err
		}
	}
	return nil
}

func inspectDir(dir, indent string) error {
	segs, err := wal.SegmentInfos(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%s%d segment(s) in %s\n", indent, len(segs), dir)
	total := 0
	for _, seg := range segs {
		scan, err := wal.ScanSegment(seg.Path, func(wal.Rec) error { return nil })
		if err != nil {
			return fmt.Errorf("%s: %w", seg.Path, err)
		}
		total += scan.Records
		fmt.Printf("%s  %-28s %8d bytes  records=%-6d seq=[%d..%d]  stream=%016x",
			indent, filepath.Base(seg.Path), scan.FileSize, scan.Records, scan.FirstSeq, scan.LastSeq, scan.StreamID)
		if scan.Tail > 0 {
			fmt.Printf("  TAIL=%d bytes (%s)", scan.Tail, scan.Reason)
		}
		fmt.Println()
	}
	snaps, err := wal.ListSnapshots(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%s%d snapshot(s)\n", indent, len(snaps))
	for _, sn := range snaps {
		fmt.Printf("%s  %-28s %8d bytes  seq=%d\n", indent, filepath.Base(sn.Path), sn.Size, sn.Seq)
	}
	fmt.Printf("%stotal valid records: %d\n", indent, total)
	return nil
}

// verify scans every record of every segment and reports CRC/framing damage
// and inter-segment sequence gaps. Exit status 1 (via a returned error) when
// anything is wrong, so it scripts cleanly. On a sharded directory every
// shard is verified and its seq range reported; a quarantined shard's log
// legitimately ends early, so raggedness across shards is informational,
// not damage.
func verify(dir string) error {
	n := shardCount(dir)
	if n == 0 {
		segs, snaps, lastSeq, damaged, err := verifyDir(dir, "")
		if err != nil {
			return err
		}
		if damaged > 0 {
			return fmt.Errorf("damage found: %d issue(s)", damaged)
		}
		fmt.Printf("ok: %d segment(s), %d snapshot(s), last seq %d\n", segs, snaps, lastSeq)
		return nil
	}
	fmt.Printf("sharded data directory: %d shard(s)\n", n)
	quar := quarantinedShards(dir, n)
	totalDamage := 0
	rsnaps, err := wal.ListSnapshots(dir)
	if err != nil {
		return err
	}
	totalDamage += verifySnapshots(dir, rsnaps, "")
	for i := 0; i < n; i++ {
		sub := engine.ShardDir(dir, i)
		segs, snaps, lastSeq, damaged, err := verifyDir(sub, "  ")
		if err != nil {
			return err
		}
		totalDamage += damaged
		state := ""
		if seq, ok := quar[i]; ok {
			state = fmt.Sprintf("  QUARANTINED at seq %s", seq)
		}
		fmt.Printf("shard %d: %d segment(s), %d snapshot(s), last seq %d%s\n",
			i, segs, snaps, lastSeq, state)
	}
	if totalDamage > 0 {
		return fmt.Errorf("damage found: %d issue(s)", totalDamage)
	}
	fmt.Printf("ok: %d router snapshot(s), %d shard(s)\n", len(rsnaps), n)
	return nil
}

func verifyDir(dir, indent string) (segCount, snapCount int, lastSeq uint64, damaged int, err error) {
	segs, err := wal.SegmentInfos(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	haveSeqs := false
	for _, seg := range segs {
		scan, serr := wal.ScanSegment(seg.Path, func(r wal.Rec) error {
			if _, derr := wal.DecodeBatch(r.Payload); derr != nil {
				return fmt.Errorf("seq %d: undecodable batch payload: %w", r.Seq, derr)
			}
			if haveSeqs && r.Seq != lastSeq+1 {
				fmt.Printf("%s%s: seq gap: %d follows %d\n", indent, filepath.Base(seg.Path), r.Seq, lastSeq)
				damaged++
			}
			lastSeq, haveSeqs = r.Seq, true
			return nil
		})
		if serr != nil {
			return 0, 0, 0, 0, fmt.Errorf("%s: %w", seg.Path, serr)
		}
		if scan.BadRecord || scan.Tail > 0 {
			fmt.Printf("%s%s: %d tail byte(s) after %d valid record(s): %s\n",
				indent, filepath.Base(seg.Path), scan.Tail, scan.Records, scan.Reason)
			damaged++
		}
	}
	snaps, err := wal.ListSnapshots(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	damaged += verifySnapshots(dir, snaps, indent)
	return len(segs), len(snaps), lastSeq, damaged, nil
}

func verifySnapshots(dir string, snaps []wal.SnapshotInfo, indent string) int {
	bad := 0
	for _, sn := range snaps {
		// Stream ID 0 is never assigned, so pass the snapshot's own header
		// check but treat a mismatch report as "unknown stream", not damage:
		// walctl has no floor plan to derive the expected ID from. Only
		// structural corruption counts.
		if _, _, rerr := wal.ReadSnapshotFile(sn.Path, 0); rerr != nil {
			var mm *wal.MismatchError
			if errors.As(rerr, &mm) {
				continue
			}
			fmt.Printf("%s%s: %v\n", indent, filepath.Base(sn.Path), rerr)
			bad++
		}
	}
	return bad
}

// truncate performs the same tail repair the server performs on startup, by
// opening the log read-write and immediately closing it. Every repair is
// reported from the OpenReport.
func truncate(dir string) error {
	// Adopt the stream ID from the first segment present; an empty dir has
	// nothing to repair.
	segs, err := wal.SegmentInfos(dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		fmt.Println("no segments; nothing to repair")
		return nil
	}
	scan, err := wal.ScanSegment(segs[0].Path, func(wal.Rec) error { return nil })
	if err != nil {
		return fmt.Errorf("%s: %w", segs[0].Path, err)
	}
	l, report, err := wal.Open(dir, wal.Options{StreamID: scan.StreamID}, nil)
	if err != nil {
		return err
	}
	if cerr := l.Close(); cerr != nil {
		return cerr
	}
	if report.Corrupt {
		fmt.Printf("repaired: truncated %d byte(s), removed %d orphaned segment(s)\n",
			report.TruncatedBytes, report.RemovedSegments)
	} else {
		fmt.Println("clean: nothing to repair")
	}
	fmt.Printf("%d record(s) remain, seq=[%d..%d]\n", report.Records, report.FirstSeq, report.LastSeq)
	return nil
}

// dump prints the last n records' decoded batch payloads.
func dump(dir string, n int) error {
	segs, err := wal.SegmentInfos(dir)
	if err != nil {
		return err
	}
	type rec struct {
		seq   uint64
		batch wal.Batch
	}
	var tail []rec
	for _, seg := range segs {
		_, err := wal.ScanSegment(seg.Path, func(r wal.Rec) error {
			b, derr := wal.DecodeBatch(r.Payload)
			if derr != nil {
				return fmt.Errorf("seq %d: %w", r.Seq, derr)
			}
			tail = append(tail, rec{r.Seq, b})
			if len(tail) > n {
				tail = tail[1:]
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", seg.Path, err)
		}
	}
	for _, r := range tail {
		b := &r.batch
		fmt.Printf("seq=%d t=%d maxSeen=%d readings=%d forced=%d gaps=%d\n",
			r.seq, b.Time, b.MaxSeen, len(b.Readings), b.Forced, b.Drops.GapSeconds)
	}
	return nil
}
