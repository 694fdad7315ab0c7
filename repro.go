// Package repro is an RFID and particle filter-based indoor spatial query
// evaluation system, reproducing Yu, Ku, Sun, and Lu, "An RFID and Particle
// Filter-Based Indoor Spatial Query Evaluation System" (EDBT 2013).
//
// The system ingests noisy raw RFID readings from readers deployed along the
// hallways of an indoor floor plan, cleanses them with a particle filter
// constrained to the indoor walking graph, indexes the resulting location
// distributions on anchor points, and answers probabilistic indoor range and
// k-nearest-neighbor queries. A symbolic model baseline (uniform over
// reachable locations, MustNewBaseline) is included for comparison, together
// with a full simulator and the benchmark harness regenerating every figure
// of the paper's evaluation.
//
// Quick start:
//
//	plan := repro.DefaultOffice()
//	dep := repro.MustDeployUniform(plan, repro.DefaultReaders, repro.DefaultActivationRange)
//	sys := repro.MustNewSystem(plan, dep, repro.DefaultConfig())
//	// feed sys.Ingest(t, raws) every second, then:
//	result := sys.RangeQuery(repro.RectWH(10, 9, 20, 8))
//
// The package is a thin facade: the subsystems live in internal packages
// (walkgraph, particle, anchor, query, engine, baseline, ...) and are
// re-exported here as type aliases, so this one import gives access to the
// full public surface.
package repro

import (
	"repro/internal/anchor"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/particle"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walkgraph"
)

// Geometry.

// Point is a 2-D floor-plan coordinate in meters.
type Point = geom.Point

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Rect is an axis-aligned rectangle (query window, room bounds).
type Rect = geom.Rect

// RectWH builds a Rect from its lower-left corner, width, and height.
func RectWH(x, y, w, h float64) Rect { return geom.RectWH(x, y, w, h) }

// RectFromCorners builds a Rect from two opposite corners.
func RectFromCorners(a, b Point) Rect { return geom.RectFromCorners(a, b) }

// Circle is a disk (reader activation range, uncertain region).
type Circle = geom.Circle

// Segment is a line segment (hallway centerline).
type Segment = geom.Segment

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return geom.Seg(a, b) }

// Floor plans.

// FloorPlan is an immutable indoor floor plan: rooms, hallways, doors.
type FloorPlan = floorplan.Plan

// PlanBuilder assembles a FloorPlan incrementally.
type PlanBuilder = floorplan.Builder

// NewPlanBuilder returns an empty PlanBuilder.
func NewPlanBuilder() *PlanBuilder { return floorplan.NewBuilder() }

// RoomID identifies a room; HallwayID a hallway.
type RoomID = floorplan.RoomID

// HallwayID identifies a hallway within a plan.
type HallwayID = floorplan.HallwayID

// DefaultOffice returns the paper's evaluation floor plan: 30 rooms and 4
// hallways forming a ring corridor on a single floor.
func DefaultOffice() *FloorPlan { return floorplan.DefaultOffice() }

// TwoStoryOffice returns a two-story variant of the default office, joined
// by staircase links.
func TwoStoryOffice() *FloorPlan { return floorplan.TwoStoryOffice() }

// RandomOffice generates a random valid office layout, useful for testing
// deployments across many geometries.
func RandomOffice(seed int64, hallways int) *FloorPlan {
	return floorplan.RandomOffice(rng.New(seed), hallways)
}

// Link is an abstract walkable connection between hallway points (stairs,
// elevator) with an explicit walking length.
type Link = floorplan.Link

// Walking graph.

// WalkGraph is the indoor walking graph G(N, E) derived from a floor plan.
type WalkGraph = walkgraph.Graph

// Location is a point on the walking graph (edge + offset).
type Location = walkgraph.Location

// BuildWalkGraph constructs the walking graph for a plan.
func BuildWalkGraph(plan *FloorPlan) (*WalkGraph, error) { return walkgraph.Build(plan) }

// RFID substrate.

// Reader is a deployed RFID reader.
type Reader = rfid.Reader

// Deployment is a set of deployed readers.
type Deployment = rfid.Deployment

// Sensor is the noisy read-process model producing raw readings.
type Sensor = rfid.Sensor

// Deployment defaults from the paper's evaluation (Section 5, Table 2).
const (
	DefaultReaders         = rfid.DefaultReaders
	DefaultActivationRange = rfid.DefaultActivationRange
)

// DeployUniform places n readers with the given activation range at uniform
// spacing along the plan's hallways.
func DeployUniform(plan *FloorPlan, n int, activationRange float64) (*Deployment, error) {
	return rfid.DeployUniform(plan, n, activationRange)
}

// MustDeployUniform is DeployUniform for known-valid parameters.
func MustDeployUniform(plan *FloorPlan, n int, activationRange float64) *Deployment {
	return rfid.MustDeployUniform(plan, n, activationRange)
}

// NewDeployment builds a deployment from an explicit reader list.
func NewDeployment(readers []Reader) *Deployment { return rfid.NewDeployment(readers) }

// NewSensor returns a Sensor with the default noise parameters.
func NewSensor(d *Deployment) *Sensor { return rfid.NewSensor(d) }

// Identifiers and records.

// ObjectID identifies a moving object (and its RFID tag).
type ObjectID = model.ObjectID

// ReaderID identifies a reader.
type ReaderID = model.ReaderID

// Time is a simulation time stamp in whole seconds.
type Time = model.Time

// RawReading is one raw RFID read.
type RawReading = model.RawReading

// Batch is one gateway delivery: the readings for batch second Time.
type Batch = model.Batch

// ResultSet is a probabilistic query answer: object -> probability.
type ResultSet = model.ResultSet

// AnchorID identifies an anchor point.
type AnchorID = anchor.ID

// AnchorTable is the APtoObjHT hash table mapping anchor points to object
// probabilities.
type AnchorTable = anchor.Table

// The system.

// Config parameterizes a System.
type Config = engine.Config

// ParticleConfig holds the particle filter parameters.
type ParticleConfig = particle.Config

// DefaultConfig returns the paper's default parameters (Table 2).
func DefaultConfig() Config { return engine.DefaultConfig() }

// System is the assembled indoor spatial query evaluation system of the
// paper's Figure 3.
type System = engine.System

// NewSystem assembles a System over a floor plan and reader deployment.
func NewSystem(plan *FloorPlan, dep *Deployment, cfg Config) (*System, error) {
	return engine.New(plan, dep, cfg)
}

// MustNewSystem is NewSystem for known-valid inputs.
func MustNewSystem(plan *FloorPlan, dep *Deployment, cfg Config) *System {
	return engine.MustNew(plan, dep, cfg)
}

// Localization (track-and-trace view).

// Localization summarizes an object's inferred whereabouts.
type Localization = engine.Localization

// RoomOdds is one entry of a room-level localization ranking.
type RoomOdds = engine.RoomOdds

// TrajectoryPoint is one reconstructed sample of an object's past movement.
type TrajectoryPoint = engine.TrajectoryPoint

// Stats are the system's cumulative work counters.
type Stats = engine.Stats

// Hardened ingestion front end.

// IngestConfig parameterizes the reorder buffer in front of the collector:
// lateness horizon, skew tolerance, and buffer bound (Config.Ingest). The
// zero value keeps the strict in-order contract. With a non-zero Horizon
// the newest Horizon seconds stay buffered until a later batch closes
// them, so call System.FlushIngest at end of stream before final queries.
type IngestConfig = ingest.Config

// IngestError is the typed error returned by the Ingest family whenever
// input is refused or discarded: late, duplicate, mis-stamped, or invalid.
type IngestError = ingest.Error

// IngestDrops is the explicit drop accounting of the ingestion path,
// exposed through Stats.Ingest.
type IngestDrops = ingest.Drops

// The symbolic model baseline and registered continuous queries.

// Baseline answers range and kNN queries with the symbolic model baseline
// (Yang et al.) over a System's collector state, for comparison with the
// particle filter.
type Baseline = baseline.SM

// MustNewBaseline builds the symbolic model baseline over a system.
func MustNewBaseline(sys *System) *Baseline { return baseline.MustNew(sys) }

// Serialization.

// DecodePlan parses the portable floor-plan JSON format.
func DecodePlan(data []byte) (*FloorPlan, error) { return floorplan.Decode(data) }

// DecodeDeployment parses the portable deployment JSON format.
func DecodeDeployment(data []byte, plan *FloorPlan) (*Deployment, error) {
	return rfid.DecodeDeployment(data, plan)
}

// Simulation.

// Simulator generates ground-truth traces and noisy raw readings.
type Simulator = sim.Simulator

// TraceConfig parameterizes the true trace generator.
type TraceConfig = sim.TraceConfig

// DefaultTraceConfig returns the paper's trace parameters.
func DefaultTraceConfig() TraceConfig { return sim.DefaultTraceConfig() }

// NewSimulator builds a simulator over a walking graph and sensor.
func NewSimulator(g *WalkGraph, sensor *Sensor, cfg TraceConfig, seed int64) (*Simulator, error) {
	return sim.New(g, sensor, cfg, seed)
}

// MustNewSimulator is NewSimulator for known-valid parameters.
func MustNewSimulator(g *WalkGraph, sensor *Sensor, cfg TraceConfig, seed int64) *Simulator {
	return sim.MustNew(g, sensor, cfg, seed)
}

// FaultConfig parameterizes the fault-injection layer between the sensor
// model and the ingestion path (dropout, burst loss, clock skew, delays,
// duplicate deliveries).
type FaultConfig = sim.FaultConfig

// FaultInjector degrades a simulated reading stream with configured faults
// while accounting for every reading it touches.
type FaultInjector = sim.Injector

// NewFaultInjector builds a fault injector over numReaders readers.
func NewFaultInjector(cfg FaultConfig, numReaders int, seed int64) (*FaultInjector, error) {
	return sim.NewInjector(cfg, numReaders, seed)
}

// Query extensions (the paper's future-work query types).

// Pair is a closest-pairs result: two objects and their expected network
// distance.
type Pair = query.Pair

// PTKNNResult is one probabilistic-threshold kNN answer entry.
type PTKNNResult = query.PTKNNResult

// ContinuousRange monitors a registered range query across snapshots.
type ContinuousRange = query.ContinuousRange

// NewContinuousRange registers a continuous range query with a membership
// probability threshold.
func NewContinuousRange(window Rect, threshold float64) *ContinuousRange {
	return query.NewContinuousRange(window, threshold)
}

// ContinuousKNN monitors a registered kNN query across snapshots.
type ContinuousKNN = query.ContinuousKNN

// NewContinuousKNN registers a continuous kNN query.
func NewContinuousKNN(q Point, k int) *ContinuousKNN { return query.NewContinuousKNN(q, k) }

// TopKObjects ranks a probabilistic result set and returns the k most likely
// objects.
func TopKObjects(rs ResultSet, k int) []ObjectID { return query.TopKObjects(rs, k) }

// Metrics.

// KLDivergence returns the smoothed Kullback-Leibler divergence between a
// ground-truth result set and a probabilistic answer.
func KLDivergence(truth, answer ResultSet) float64 {
	return metrics.KLDivergence(truth, answer, metrics.DefaultEpsilon)
}

// HitRate returns the fraction of the ground-truth result a method found.
func HitRate(returned, truth []ObjectID) float64 { return metrics.HitRate(returned, truth) }
