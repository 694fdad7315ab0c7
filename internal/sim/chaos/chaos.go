// Package chaos is the crash/restart harness for the durable engine: it
// drives a simulated reading stream into a WAL-backed router
// (engine.OpenSharded; Shards 0 or 1 is the single-engine shape), hard-kills
// the process state at pseudo-random points (no Close, no flush — exactly
// what a power cut leaves behind), optionally smears garbage over a WAL tail,
// and reopens. At the end it verifies the survivor against a memory-only
// engine fed the same effective delivery sequence: identical Stats, clock,
// known objects, and range/kNN/occupancy answers.
//
// It lives under internal/sim because it is a simulation tool, but in its own
// package: the engine's own tests import internal/sim, so the harness (which
// imports engine) must sit one level down to stay cycle-free.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Config parameterizes one chaos run.
type Config struct {
	// Engine is the durable system's configuration. Durability.Dir must be
	// set; the harness refuses to run without it (a memoryless crash test
	// proves nothing).
	Engine engine.Config
	// Trace parameterizes the simulated world.
	Trace sim.TraceConfig
	// Seconds is the stream length to drive.
	Seconds int
	// Crashes is how many hard kills to spread across the run.
	Crashes int
	// TornTailBytes, when non-zero, appends that many random garbage bytes
	// to shard 0's newest WAL segment after each crash, simulating a write
	// torn mid-record. Recovery must truncate them.
	TornTailBytes int
	// Seed drives the world, the crash schedule, and the garbage bytes.
	Seed int64
}

// Report summarizes what the run did and found.
type Report struct {
	// Seconds is the stream length driven; Crashes the kills performed.
	Seconds, Crashes int
	// RecordsReplayed and SnapshotsRestored are summed across restarts.
	RecordsReplayed   int
	SnapshotsRestored int
	// RedeliveredSeconds counts seconds the harness re-sent after a crash
	// because they were buffered (inside the reorder horizon) but not yet
	// flushed to the WAL — the gateway-retransmission model.
	RedeliveredSeconds int
	// TornBytesInjected / TruncatedBytes account the garbage smeared on the
	// tail and what recovery cut. Truncated can exceed injected when a kill
	// also tore a partially appended record.
	TornBytesInjected int
	TruncatedBytes    int64
	// Stats is the survivor's final accounting.
	Stats engine.Stats
	// Mismatches lists every divergence from the oracle; empty means the
	// crash-recovery contract held.
	Mismatches []string
}

type delivery struct {
	t    model.Time
	raws []model.RawReading
}

// Run executes one chaos scenario and verifies the survivor against an
// uncrashed oracle. It returns an error only for operational failures
// (bad config, I/O); contract violations land in Report.Mismatches.
func Run(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (Report, error) {
	var rep Report
	if !cfg.Engine.Durability.Enabled() {
		return rep, fmt.Errorf("chaos: Engine.Durability.Dir must be set")
	}
	if cfg.Seconds <= 0 {
		return rep, fmt.Errorf("chaos: Seconds must be positive, got %d", cfg.Seconds)
	}
	rep.Seconds = cfg.Seconds

	sys, err := engine.OpenSharded(plan, dep, cfg.Engine)
	if err != nil {
		return rep, err
	}
	world, err := sim.New(sys.Graph(), rfid.NewSensor(dep), cfg.Trace, cfg.Seed)
	if err != nil {
		return rep, err
	}
	// Pre-generate the whole stream so post-crash rewinds re-send the exact
	// bytes a real gateway would retransmit.
	deliveries := make([]delivery, cfg.Seconds)
	for i := range deliveries {
		t, raws := world.Step()
		deliveries[i] = delivery{t, raws}
	}

	// Crash schedule: after which delivery indices to kill. Never after the
	// last one — the final stretch must prove post-recovery liveness.
	rng := rand.New(rand.NewSource(cfg.Seed + 7177))
	crashAfter := make(map[int]bool, cfg.Crashes)
	for len(crashAfter) < cfg.Crashes && len(crashAfter) < cfg.Seconds-1 {
		crashAfter[rng.Intn(cfg.Seconds-1)] = true
	}

	// fed is the effective delivery sequence: everything the surviving
	// state reflects. A crash erases the buffered-not-flushed window, so
	// the rewind cuts fed back to the recovered watermark before re-sending.
	fed := make([]delivery, 0, cfg.Seconds)
	i := 0
	for i < len(deliveries) {
		d := deliveries[i]
		if err := sys.Ingest(d.t, d.raws); err != nil {
			return rep, fmt.Errorf("chaos: ingest t=%d: %w", d.t, err)
		}
		fed = append(fed, d)
		if crashAfter[i] {
			delete(crashAfter, i) // a rewind may cross this index again
			rep.Crashes++
			// Hard kill: abandon the system without Close. Open file
			// handles leak for the run's duration, exactly like a killed
			// process until the OS reaps it.
			sys = nil
			if cfg.TornTailBytes > 0 {
				n, err := smearTail(cfg.Engine.Durability.Dir, rng, cfg.TornTailBytes)
				if err != nil {
					return rep, err
				}
				rep.TornBytesInjected += n
			}
			sys, err = engine.OpenSharded(plan, dep, cfg.Engine)
			if err != nil {
				return rep, fmt.Errorf("chaos: reopen after crash %d: %w", rep.Crashes, err)
			}
			rec := sys.Recovery()
			rep.RecordsReplayed += rec.RecordsReplayed
			rep.TruncatedBytes += rec.TruncatedBytes
			if rec.SnapshotRestored {
				rep.SnapshotsRestored++
			}
			// Rewind past the lost window: the recovered watermark is the
			// last acked second; everything newer must be re-sent.
			w := sys.Now()
			for len(fed) > 0 && fed[len(fed)-1].t > w {
				fed = fed[:len(fed)-1]
				i--
				rep.RedeliveredSeconds++
			}
		}
		i++
	}
	sys.FlushIngest()

	// Oracle: a memory-only engine fed the effective sequence in one
	// uncrashed pass. The survivor must be indistinguishable from it.
	oracleCfg := cfg.Engine
	oracleCfg.Durability = engine.DurabilityConfig{}
	oracle, err := engine.New(plan, dep, oracleCfg)
	if err != nil {
		return rep, err
	}
	for _, d := range fed {
		if err := oracle.Ingest(d.t, d.raws); err != nil {
			return rep, fmt.Errorf("chaos: oracle ingest t=%d: %w", d.t, err)
		}
	}
	oracle.FlushIngest()

	rep.Stats = sys.Stats()
	if want := oracle.Stats(); !reflect.DeepEqual(rep.Stats, want) {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("stats: survivor %+v oracle %+v", rep.Stats, want))
	}
	rep.Mismatches = append(rep.Mismatches, compareSharded(sys, oracle, plan)...)

	// Conservation: every reading fed to the survivor's effective sequence
	// is either ingested, dropped with a reason, or (impossible after
	// FlushIngest) pending.
	produced := 0
	for _, d := range fed {
		produced += len(d.raws)
	}
	st := rep.Stats
	if got := st.ReadingsIngested + st.ReadingsDropped + st.ReadingsPending; got != produced {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"conservation: ingested(%d)+dropped(%d)+pending(%d) = %d, want %d offered",
			st.ReadingsIngested, st.ReadingsDropped, st.ReadingsPending, got, produced))
	}

	if err := sys.Close(); err != nil {
		return rep, fmt.Errorf("chaos: final close: %w", err)
	}
	return rep, nil
}

// smearTail appends n random bytes to the newest WAL segment of shard 0
// (dir/shard-0000), simulating a record torn mid-write by the kill.
func smearTail(dir string, rng *rand.Rand, n int) (int, error) {
	segs, err := wal.SegmentInfos(filepath.Join(dir, "shard-0000"))
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	garbage := make([]byte, n)
	rng.Read(garbage)
	f, err := os.OpenFile(segs[len(segs)-1].Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Write(garbage); err != nil {
		return 0, err
	}
	return n, nil
}
