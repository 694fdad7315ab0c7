// Command server runs the indoor spatial query system as an HTTP service:
// reader gateways POST raw readings to /ingest and applications query
// /range, /knn, /localize, /occupancy, /stats, /plan, and /snapshot.svg.
//
// Usage:
//
//	server                        # default office on :8080
//	server -addr :9000 -plan my-building.json -readers 24 -range 1.5
//	server -demo                  # also run a built-in simulator feeding readings
//	server -data-dir ./data       # durable: WAL + snapshots, recover on restart
//	server -shards 4 -data-dir ./data       # four independently locked shards
//	server -addr :8080 -node-id 10.0.0.1:8080 \
//	       -peers 10.0.0.1:8080,10.0.0.2:8080   # one node of a static cluster
//
// The engine is always the router (engine.OpenSharded) over -shards in-memory
// shards; -shards 1, the default, is one shard behind it and answers
// bit-for-bit like any other count.
//
// With -data-dir set the server opens (or creates) one write-ahead log per
// shard and the snapshot store there (SHARDS guard file, shard-%04d/
// directories), recovers any prior state on startup, and on SIGINT or SIGTERM
// drains in-flight requests, flushes the reorder buffer, and writes a final
// snapshot before exiting. The directory is pinned to its shard count, and a
// directory in the flat layout older single-engine builds wrote (segments and
// snapshots at the top level, no SHARDS file) is refused, not overwritten;
// cmd/walctl still reads it.
//
// With -peers set the node joins a static cluster: every node is given the
// same member list, owns the objects the shared jump hash assigns it, and
// forwards the rest over the peer RPC on /cluster/rpc (see DESIGN.md §17).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/health"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		planFile = flag.String("plan", "", "floor plan JSON file (default: built-in office)")
		readers  = flag.Int("readers", rfid.DefaultReaders, "readers to deploy uniformly")
		rdRange  = flag.Float64("range", rfid.DefaultActivationRange, "reader activation range (m)")
		history  = flag.Bool("history", true, "retain full reading history for historical queries")
		demo     = flag.Bool("demo", false, "run a built-in simulator that feeds readings")
		objects  = flag.Int("objects", 30, "simulated objects in -demo mode")
		seed     = flag.Int64("seed", 1, "random seed")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		slowQ    = flag.Duration("slow-query", 100*time.Millisecond, "slow-query log threshold (0 disables the log)")
		shards   = flag.Int("shards", 1, "shards behind the engine's router: objects partition across this many independently locked shards, each with its own WAL stream; answers are identical at any count, and a -data-dir is pinned to the count that created it")
		traceSmp = flag.Float64("trace-sample", 0.01, "probability an unremarkable request trace is kept at /debug/traces (slow/shed/deadline/errored traces are always kept; negative disables tracing)")

		healthOn    = flag.Bool("reader-health", true, "infer per-reader liveness and compensate the sensing model for SUSPECT/DEAD readers")
		maxInFlight = flag.Int("max-inflight", 4, "concurrent queries admitted (0 disables admission control and overload shedding)")
		maxQueue    = flag.Int("max-queue", 32, "queries allowed to wait for an admission slot before shedding with 429")
		maxWait     = flag.Duration("max-wait", 500*time.Millisecond, "longest a query waits for an admission slot before 429")
		ingestBytes = flag.Int64("ingest-max-bytes", server.DefaultMaxIngestBytes, "POST /ingest body cap in bytes (negative disables)")

		peersFlag = flag.String("peers", "", "comma-separated cluster membership host:port list, including this node (empty: single-node)")
		nodeID    = flag.String("node-id", "", "this node's address exactly as it appears in -peers (required with -peers)")

		dataDir   = flag.String("data-dir", "", "data directory for the WAL and snapshots (empty: in-memory only)")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always, interval, or off")
		fsyncIvl  = flag.Duration("fsync-interval", time.Second, "minimum spacing between fsyncs under -fsync=interval")
		snapEvery = flag.Int("snapshot-every", 300, "write an engine snapshot every N acked stream seconds (0: only on shutdown)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	)
	flag.Parse()

	plan := floorplan.DefaultOffice()
	if *planFile != "" {
		data, err := os.ReadFile(*planFile)
		if err != nil {
			return err
		}
		plan, err = floorplan.Decode(data)
		if err != nil {
			return err
		}
	}
	dep, err := rfid.DeployUniform(plan, *readers, *rdRange)
	if err != nil {
		return err
	}
	cfg := engine.DefaultConfig()
	cfg.KeepHistory = *history
	cfg.Seed = *seed
	cfg.SlowQueryThreshold = *slowQ
	if !*healthOn {
		cfg.Health = health.Config{}
	}
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		cfg.Durability = engine.DurabilityConfig{
			Dir:           *dataDir,
			Fsync:         policy,
			FsyncInterval: *fsyncIvl,
			SnapshotEvery: *snapEvery,
		}
	}
	cfg.Shards = *shards
	eng, err := engine.OpenSharded(plan, dep, cfg)
	if err != nil {
		return err
	}
	var sys server.Engine = eng
	if *peersFlag != "" {
		var members []string
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		node, err := cluster.New(eng, cluster.Config{
			Self:      *nodeID,
			Peers:     members,
			Transport: cluster.NewHTTPTransport(),
			Seed:      *seed,
			// Bound concurrent remote evaluates by the same knob that bounds
			// client queries, so a forwarded scatter cannot starve local ones.
			EvaluateSlots: *maxInFlight,
		})
		if err != nil {
			return err
		}
		sys = node
		fmt.Printf("cluster: node %s of %v\n", *nodeID, node.Members())
	}
	adm := server.DefaultAdmissionConfig()
	adm.MaxInFlight = *maxInFlight
	adm.MaxQueue = *maxQueue
	adm.MaxWait = *maxWait
	srv := server.NewWith(sys, plan, dep, server.Config{
		Admission:      adm,
		MaxIngestBytes: *ingestBytes,
		Trace: trace.Config{
			Sample: *traceSmp,
			Slow:   *slowQ,
			Seed:   *seed,
		},
	})
	if rec := sys.Recovery(); rec.Enabled {
		fmt.Printf("durability: data-dir=%s fsync=%s; recovered snapshot seq=%d, replayed %d records (%d readings)",
			*dataDir, *fsync, rec.SnapshotSeq, rec.RecordsReplayed, rec.ReadingsReplayed)
		if rec.Corrupt {
			fmt.Printf("; repaired torn tail (%d bytes truncated)", rec.TruncatedBytes)
		}
		fmt.Println()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *demo {
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = *objects
		world, err := sim.New(sys.Graph(), rfid.NewSensor(dep), tc, *seed+7)
		if err != nil {
			return err
		}
		// After a recovery the stream clock is past zero; fast-forward the
		// simulator so its deliveries land ahead of the watermark instead of
		// being rejected as late retransmissions.
		for world.Now() < sys.Now() {
			world.Step()
		}
		go func() {
			// One simulated second per wall-clock second, ingested through
			// the same code path HTTP clients use.
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					t, raws := world.Step()
					srv.IngestDirect(t, raws)
				}
			}
		}()
		fmt.Printf("demo simulator running: %d objects\n", *objects)
	}

	fmt.Printf("indoor query server on %s (%d rooms, %d readers)\n",
		*addr, len(plan.Rooms()), dep.NumReaders())
	fmt.Printf("telemetry: /metrics, /debug/filtertrace and /debug/traces")
	if *pprofOn {
		fmt.Printf(", pprof on /debug/pprof/")
	}
	fmt.Println()

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.HandlerWith(server.HandlerConfig{EnablePProf: *pprofOn}),
		// Bound every connection phase so a slow or malicious client cannot
		// hold a goroutine forever (slowloris): headers within 5s, the whole
		// request within 30s, responses within 2m (SVG snapshots and pprof
		// profiles are the slow ones), idle keep-alives recycled at 2m.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop admitting (readyz goes 503 so load balancers
	// route away), drain in-flight requests up to the deadline, then flush
	// the reorder buffer and write a final snapshot via srv.Close.
	fmt.Println("server: shutting down, draining requests")
	srv.SetReady(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "server: drain: %v\n", err)
		httpSrv.Close()
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Println("server: state persisted, bye")
	return nil
}
