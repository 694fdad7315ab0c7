package engine

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// goldenSummaries renders every summary the query path produces on one
// seeded scenario with floats as their bit patterns, so two commits can be
// compared to the last bit.
func goldenSummaries(t *testing.T) string {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 5
	sys := MustNew(plan, dep, cfg)
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), traceCfg120(), 9)
	ingestTrace(t, sys, world, 50)

	var b strings.Builder
	hex := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	results := func(name string, rs model.ResultSet) {
		objs := rs.Objects()
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		for _, o := range objs {
			fmt.Fprintf(&b, "%s o%d %s\n", name, o, hex(rs[o]))
		}
	}
	for _, ro := range sys.Occupancy() {
		fmt.Fprintf(&b, "occupancy room=%d %s\n", ro.Room, hex(ro.P))
	}
	for _, l := range localizeAll(sys) {
		fmt.Fprintf(&b, "localize o%d mean=%s,%s mode=%d %s room=%d %s entropy=%s\n", l.Object,
			hex(l.Mean.X), hex(l.Mean.Y), l.Mode, hex(l.ModeProb), l.Room, hex(l.RoomProb), hex(l.Entropy))
	}
	for _, r := range sys.PTKNNQuery(geom.Pt(35, 10), 3, 0.05) {
		fmt.Fprintf(&b, "ptknn o%d %s\n", r.Object, hex(r.P))
	}
	results("range", sys.RangeQuery(geom.RectWH(20, 4, 24, 12)))
	results("knn", sys.KNNQuery(geom.Pt(35, 10), 5))
	return b.String()
}

// TestSummariesGolden pins /occupancy, /localize, PTkNN, range and kNN
// answers to testdata/summaries.golden, which was written by this same
// function at the commit before the query path went flat (maps, per-object
// sorts, cloning cache). GOLDEN_UPDATE=1 rewrites it.
func TestSummariesGolden(t *testing.T) {
	const path = "testdata/summaries.golden"
	got := goldenSummaries(t)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
