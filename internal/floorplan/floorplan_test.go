package floorplan

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestDefaultOfficeShape(t *testing.T) {
	p := DefaultOffice()
	if got := len(p.Rooms()); got != OfficeRooms {
		t.Errorf("rooms = %d, want %d", got, OfficeRooms)
	}
	if got := len(p.Hallways()); got != OfficeHallways {
		t.Errorf("hallways = %d, want %d", got, OfficeHallways)
	}
	if got := len(p.Doors()); got != OfficeRooms {
		t.Errorf("doors = %d, want %d (one per room)", got, OfficeRooms)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDefaultOfficeEveryRoomHasDoorOnItsBoundary(t *testing.T) {
	p := DefaultOffice()
	for _, r := range p.Rooms() {
		if len(r.Doors) == 0 {
			t.Fatalf("room %s has no door", r.Name)
		}
		for _, did := range r.Doors {
			d := p.Door(did)
			if r.Bounds.DistToPoint(d.Pos) > geom.Eps {
				t.Errorf("room %s door %d at %v not on boundary %v", r.Name, did, d.Pos, r.Bounds)
			}
		}
	}
}

func TestDefaultOfficeHallwayLengths(t *testing.T) {
	p := DefaultOffice()
	// Two 66 m horizontal hallways plus two 12 m vertical ones.
	want := 66.0 + 66.0 + 12.0 + 12.0
	if got := p.TotalHallwayLength(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalHallwayLength = %v, want %v", got, want)
	}
}

func TestDefaultOfficeTotalArea(t *testing.T) {
	p := DefaultOffice()
	got := p.TotalArea()
	// 20 outer rooms of 6.6x7 plus 10 inner rooms of 12.8x5 plus hallway
	// strips (2 m wide, lengths 66+66+12+12 with half-width end caps).
	rooms := 20*6.6*7 + 10*12.8*5
	halls := 2*(68.0*2) + 2*(14.0*2)
	want := rooms + halls
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("TotalArea = %v, want %v", got, want)
	}
}

func TestRoomAtAndHallwayAt(t *testing.T) {
	p := DefaultOffice()
	// Center of room S1.
	if got := p.RoomAt(geom.Pt(5, 7)); got != 0 {
		t.Errorf("RoomAt(S1 center) = %d", got)
	}
	// A point on the south hallway.
	if got := p.HallwayAt(geom.Pt(30, 12)); got != 0 {
		t.Errorf("HallwayAt(hall-south point) = %d", got)
	}
	// Outside everything.
	if got := p.RoomAt(geom.Pt(-50, -50)); got != NoRoom {
		t.Errorf("RoomAt(outside) = %d", got)
	}
	if got := p.HallwayAt(geom.Pt(-50, -50)); got != NoHallway {
		t.Errorf("HallwayAt(outside) = %d", got)
	}
	// Hallway points are not in rooms and room interiors are not hallways.
	if got := p.RoomAt(geom.Pt(30, 12)); got != NoRoom {
		t.Errorf("hallway point reported inside room %d", got)
	}
	if got := p.HallwayAt(geom.Pt(5, 7)); got != NoHallway {
		t.Errorf("room interior reported on hallway %d", got)
	}
}

func TestPointOnHallwayWalksConcatenation(t *testing.T) {
	p := DefaultOffice()
	// Distance 0 is the start of hall-south.
	pt, h := p.PointOnHallway(0)
	if h != 0 || !pt.Equal(geom.Pt(2, 12)) {
		t.Errorf("PointOnHallway(0) = %v on %d", pt, h)
	}
	// 33 m along is the middle of hall-south.
	pt, h = p.PointOnHallway(33)
	if h != 0 || !pt.Equal(geom.Pt(35, 12)) {
		t.Errorf("PointOnHallway(33) = %v on %d", pt, h)
	}
	// 66 + 12 + 33 m is the middle of hall-north (walked east to west).
	pt, h = p.PointOnHallway(111)
	if h != 2 || !pt.Equal(geom.Pt(35, 24)) {
		t.Errorf("PointOnHallway(111) = %v on %d", pt, h)
	}
	// Past the end clamps to the last hallway's endpoint (hall-west ends at
	// the ring origin).
	pt, h = p.PointOnHallway(1e6)
	if h != 3 || !pt.Equal(geom.Pt(2, 12)) {
		t.Errorf("PointOnHallway(huge) = %v on %d", pt, h)
	}
	// Negative clamps to the start.
	pt, _ = p.PointOnHallway(-5)
	if !pt.Equal(geom.Pt(2, 12)) {
		t.Errorf("PointOnHallway(-5) = %v", pt)
	}
}

func TestHallwayStrip(t *testing.T) {
	h := Hallway{Center: geom.Seg(geom.Pt(2, 12), geom.Pt(68, 12)), Width: 2}
	s := h.Strip()
	if s.Min != geom.Pt(1, 11) || s.Max != geom.Pt(69, 13) {
		t.Errorf("Strip = %v", s)
	}
	if !h.Horizontal() {
		t.Error("horizontal hallway not detected")
	}
	v := Hallway{Center: geom.Seg(geom.Pt(2, 12), geom.Pt(2, 24)), Width: 2}
	if v.Horizontal() {
		t.Error("vertical hallway reported horizontal")
	}
}

func TestBuilderRejectsUnknownHallway(t *testing.T) {
	b := NewBuilder()
	b.AddRoom("bad", geom.RectWH(0, 0, 5, 5), HallwayID(7))
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for unknown hallway reference")
	}
}

func TestBuilderRejectsOverlappingRooms(t *testing.T) {
	b := NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(50, 10)), 2)
	b.AddRoom("a", geom.RectWH(0, 0, 10, 9), h)
	b.AddRoom("b", geom.RectWH(5, 0, 10, 9), h)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("expected room-overlap error, got %v", err)
	}
}

func TestBuilderRejectsRoomOverHallway(t *testing.T) {
	b := NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(50, 10)), 2)
	b.AddRoom("a", geom.RectWH(0, 5, 10, 10), h) // spans the strip
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "overlaps hallway") {
		t.Fatalf("expected room-hallway overlap error, got %v", err)
	}
}

func TestBuilderRejectsZeroWidthHallway(t *testing.T) {
	b := NewBuilder()
	b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(50, 10)), 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for zero-width hallway")
	}
}

func TestBuilderRejectsDiagonalHallway(t *testing.T) {
	b := NewBuilder()
	b.AddHallway("h", geom.Seg(geom.Pt(0, 0), geom.Pt(10, 10)), 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for diagonal hallway")
	}
}

func TestBuilderRejectsEmptyPlan(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("expected error for plan with no hallways")
	}
}

func TestAddDoorSecondDoor(t *testing.T) {
	b := NewBuilder()
	h1 := b.AddHallway("h1", geom.Seg(geom.Pt(0, 10), geom.Pt(50, 10)), 2)
	h2 := b.AddHallway("h2", geom.Seg(geom.Pt(0, 20), geom.Pt(50, 20)), 2)
	// Room between the two hallways, with a door to each.
	r := b.AddRoom("mid", geom.RectWH(10, 11, 10, 8), h1)
	b.AddDoor(r, h2, geom.Pt(15, 19))
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := len(p.Room(r).Doors); got != 2 {
		t.Fatalf("doors on room = %d, want 2", got)
	}
	d := p.Door(p.Room(r).Doors[1])
	if !d.HallwayPoint.Equal(geom.Pt(15, 20)) {
		t.Errorf("second door hallway point = %v", d.HallwayPoint)
	}
}

func TestAddDoorRejectsUnknownIDs(t *testing.T) {
	b := NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(50, 10)), 2)
	b.AddDoor(RoomID(5), h, geom.Pt(1, 9))
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for unknown room in AddDoor")
	}
	b2 := NewBuilder()
	h2 := b2.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(50, 10)), 2)
	r := b2.AddRoom("a", geom.RectWH(0, 0, 10, 9), h2)
	b2.AddDoor(r, HallwayID(9), geom.Pt(1, 9))
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for unknown hallway in AddDoor")
	}
}

func TestValidateRejectsDoorOffBoundary(t *testing.T) {
	b := NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(50, 10)), 2)
	b.AddRoomWithDoor("a", geom.RectWH(0, 0, 10, 9), h, geom.Pt(30, 30))
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for door off the room boundary")
	}
}

func TestDefaultOfficeRoomNamesUnique(t *testing.T) {
	p := DefaultOffice()
	seen := map[string]bool{}
	for _, r := range p.Rooms() {
		if seen[r.Name] {
			t.Errorf("duplicate room name %q", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestDefaultOfficeDoorsWithinHallwayWidth(t *testing.T) {
	p := DefaultOffice()
	for _, d := range p.Doors() {
		h := p.Hallway(d.Hallway)
		if dist := d.Pos.Dist(d.HallwayPoint); dist > h.Width {
			t.Errorf("door %d is %v m from centerline (width %v)", d.ID, dist, h.Width)
		}
	}
}

// BenchmarkRoomAt measures the simulator's per-object, per-second room
// lookup: a 16×16 grid of points over the default office's bounds, rooms and
// hallways alike, one RoomAt per point.
func BenchmarkRoomAt(b *testing.B) {
	p := DefaultOffice()
	bb := p.Bounds()
	var pts []geom.Point
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			pts = append(pts, geom.Pt(
				bb.Min.X+(float64(i)+0.5)*bb.Width()/16,
				bb.Min.Y+(float64(j)+0.5)*bb.Height()/16))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if p.RoomAt(pts[i%len(pts)]) != NoRoom {
			n++
		}
	}
	if n == 0 && b.N >= len(pts) {
		b.Fatal("no grid point fell in a room")
	}
}
