// Package floorplan models a single-floor indoor space: rooms, hallways, and
// the doors that connect rooms to hallways. It is the geometric substrate on
// which the indoor walking graph (package walkgraph) is built.
//
// Hallways are modelled as axis-aligned strips around a centerline segment,
// matching the paper's assumption that the detection range of an RFID reader
// covers the full hallway width and that positions across the width cannot
// be inferred. Rooms are axis-aligned rectangles attached to hallways by
// doors.
package floorplan

import (
	"fmt"

	"repro/internal/geom"
)

// RoomID identifies a room within a plan.
type RoomID int

// NoRoom marks "not a room" (for example, a hallway location).
const NoRoom RoomID = -1

// HallwayID identifies a hallway within a plan.
type HallwayID int

// NoHallway marks "not a hallway" (for example, a room location).
const NoHallway HallwayID = -1

// DoorID identifies a door within a plan.
type DoorID int

// Room is a room composed of one or more axis-aligned rectangles (a plain
// rectangle or an L/T/U-shaped composite). Movement resolution inside rooms
// is a single room (no readers are deployed inside rooms), so a room carries
// no interior structure beyond its footprint.
type Room struct {
	ID   RoomID
	Name string
	// Bounds is the bounding box of the room's footprint.
	Bounds geom.Rect
	// Parts are the disjoint rectangles composing the footprint. Empty means
	// the room is the single rectangle Bounds.
	Parts []geom.Rect
	// Doors lists the doors that connect this room to hallways.
	Doors []DoorID
}

// AllParts returns the room's footprint rectangles (at least one).
func (r Room) AllParts() []geom.Rect {
	if len(r.Parts) == 0 {
		return []geom.Rect{r.Bounds}
	}
	return r.Parts
}

// Area returns the room's floor area in square meters.
func (r Room) Area() float64 {
	a := 0.0
	for _, p := range r.AllParts() {
		a += p.Area()
	}
	return a
}

// Contains reports whether the point lies inside the room's footprint. Its
// pointer receiver lets RoomAt test a plan's rooms in place, without
// copying each Room struct per call.
func (r *Room) Contains(p geom.Point) bool {
	for _, part := range r.AllParts() {
		if part.Contains(p) {
			return true
		}
	}
	return false
}

// IntersectArea returns the area of the room's footprint inside the window.
func (r Room) IntersectArea(window geom.Rect) float64 {
	a := 0.0
	for _, part := range r.AllParts() {
		ov := part.Intersect(window)
		if !ov.Empty() {
			a += ov.Area()
		}
	}
	return a
}

// OverlapsRect reports whether the footprint shares area with the rectangle.
func (r Room) OverlapsRect(o geom.Rect) bool {
	for _, part := range r.AllParts() {
		if part.Overlaps(o) {
			return true
		}
	}
	return false
}

// overlapsRoom reports whether two footprints share area.
func (r Room) overlapsRoom(o Room) bool {
	for _, part := range o.AllParts() {
		if r.OverlapsRect(part) {
			return true
		}
	}
	return false
}

// Center returns the room's walking-graph node position: the center of the
// largest footprint part, which is always inside the room (the bounding-box
// center of an L-shape may not be).
func (r Room) Center() geom.Point {
	parts := r.AllParts()
	best := parts[0]
	for _, p := range parts[1:] {
		if p.Area() > best.Area() {
			best = p
		}
	}
	return best.Center()
}

// Hallway is an axis-aligned hallway strip.
type Hallway struct {
	ID     HallwayID
	Name   string
	Center geom.Segment // centerline; horizontal or vertical
	Width  float64      // full width of the strip, in meters
}

// Length returns the centerline length.
func (h Hallway) Length() float64 { return h.Center.Length() }

// Strip returns the rectangular footprint of the hallway.
func (h Hallway) Strip() geom.Rect {
	half := h.Width / 2
	r := geom.RectFromCorners(h.Center.A, h.Center.B)
	return r.Expand(half)
}

// Horizontal reports whether the centerline runs along the X axis.
func (h Hallway) Horizontal() bool {
	return h.Center.A.Y == h.Center.B.Y
}

// Door connects a room to a hallway.
type Door struct {
	ID      DoorID
	Room    RoomID
	Hallway HallwayID
	// Pos is the door's position on the room boundary.
	Pos geom.Point
	// HallwayPoint is the projection of the door onto the hallway
	// centerline; it becomes a walking-graph node.
	HallwayPoint geom.Point
}

// LinkID identifies a link within a plan.
type LinkID int

// Link is an abstract walkable connection between two hallway points whose
// walking length is specified explicitly rather than derived from geometry:
// a staircase, elevator, or escalator. Multi-story buildings are modelled by
// laying the floors out side by side in the plan coordinate space and
// joining them with links whose lengths are the true stair walking
// distances.
type Link struct {
	ID   LinkID
	Name string
	// A and B are the link's endpoints; each must lie on a hallway
	// centerline.
	A, B geom.Point
	// HallwayA and HallwayB are the hallways the endpoints sit on.
	HallwayA, HallwayB HallwayID
	// Length is the walking distance through the link in meters. It must be
	// at least the straight-line distance between A and B, which keeps
	// Euclidean uncertain-region pruning sound.
	Length float64
}

// Plan is an immutable floor plan. Construct one with a Builder.
type Plan struct {
	rooms    []Room
	hallways []Hallway
	doors    []Door
	links    []Link
	bounds   geom.Rect
}

// Rooms returns all rooms, indexed by RoomID.
func (p *Plan) Rooms() []Room { return p.rooms }

// Hallways returns all hallways, indexed by HallwayID.
func (p *Plan) Hallways() []Hallway { return p.hallways }

// Doors returns all doors, indexed by DoorID.
func (p *Plan) Doors() []Door { return p.doors }

// Links returns all links (stairs, elevators), indexed by LinkID.
func (p *Plan) Links() []Link { return p.links }

// Link returns the link with the given ID.
func (p *Plan) Link(id LinkID) Link { return p.links[id] }

// Room returns the room with the given ID.
func (p *Plan) Room(id RoomID) Room { return p.rooms[id] }

// Hallway returns the hallway with the given ID.
func (p *Plan) Hallway(id HallwayID) Hallway { return p.hallways[id] }

// Door returns the door with the given ID.
func (p *Plan) Door(id DoorID) Door { return p.doors[id] }

// Bounds returns the bounding box of the whole plan.
func (p *Plan) Bounds() geom.Rect { return p.bounds }

// TotalArea returns the summed area of all rooms and hallway strips. Query
// window sizes in the experiments are expressed as a percentage of this.
func (p *Plan) TotalArea() float64 {
	a := 0.0
	for _, r := range p.rooms {
		a += r.Area()
	}
	for _, h := range p.hallways {
		a += h.Strip().Area()
	}
	return a
}

// TotalHallwayLength returns the summed centerline length of all hallways,
// used to place readers at uniform spacing.
func (p *Plan) TotalHallwayLength() float64 {
	l := 0.0
	for _, h := range p.hallways {
		l += h.Length()
	}
	return l
}

// RoomAt returns the room whose footprint contains p, or NoRoom.
func (pl *Plan) RoomAt(pt geom.Point) RoomID {
	for i := range pl.rooms {
		if r := &pl.rooms[i]; r.Contains(pt) {
			return r.ID
		}
	}
	return NoRoom
}

// partsConnected reports whether the rectangles form one connected region
// (touching edges count as connected).
func partsConnected(parts []geom.Rect) bool {
	n := len(parts)
	visited := make([]bool, n)
	queue := []int{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			// Touching: expanded-by-eps rectangles overlap.
			if parts[cur].Expand(1e-6).Overlaps(parts[j]) {
				visited[j] = true
				count++
				queue = append(queue, j)
			}
		}
	}
	return count == n
}

// HallwayAt returns the hallway whose strip contains p, or NoHallway. When
// strips overlap (at hallway junctions), the lowest-ID hallway wins.
func (pl *Plan) HallwayAt(pt geom.Point) HallwayID {
	for _, h := range pl.hallways {
		if h.Strip().Contains(pt) {
			return h.ID
		}
	}
	return NoHallway
}

// PointOnHallway returns the point at the given distance along the
// concatenated hallway centerlines (in HallwayID order), together with the
// hallway it falls on. It is used to deploy readers at uniform spacing.
// The distance is clamped to [0, TotalHallwayLength].
func (pl *Plan) PointOnHallway(dist float64) (geom.Point, HallwayID) {
	if dist < 0 {
		dist = 0
	}
	for _, h := range pl.hallways {
		l := h.Length()
		if dist <= l {
			t := 0.0
			if l > 0 {
				t = dist / l
			}
			return h.Center.At(t), h.ID
		}
		dist -= l
	}
	last := pl.hallways[len(pl.hallways)-1]
	return last.Center.B, last.ID
}

// Validate checks the structural invariants of the plan. It is called by
// Builder.Build and exported for tests and externally constructed plans.
func (p *Plan) Validate() error {
	if len(p.hallways) == 0 {
		return fmt.Errorf("floorplan: no hallways")
	}
	for _, h := range p.hallways {
		if h.Width <= 0 {
			return fmt.Errorf("floorplan: hallway %d has non-positive width %v", h.ID, h.Width)
		}
		if !h.Horizontal() && h.Center.A.X != h.Center.B.X {
			return fmt.Errorf("floorplan: hallway %d centerline is not axis-aligned", h.ID)
		}
		if h.Length() <= 0 {
			return fmt.Errorf("floorplan: hallway %d has zero length", h.ID)
		}
	}
	for _, r := range p.rooms {
		if r.Bounds.Empty() {
			return fmt.Errorf("floorplan: room %d has empty bounds", r.ID)
		}
		if len(r.Doors) == 0 {
			return fmt.Errorf("floorplan: room %d has no doors", r.ID)
		}
		parts := r.AllParts()
		for i, a := range parts {
			if a.Empty() {
				return fmt.Errorf("floorplan: room %d has an empty part", r.ID)
			}
			if !r.Bounds.Contains(a.Min) || !r.Bounds.Contains(a.Max) {
				return fmt.Errorf("floorplan: room %d part outside its bounds", r.ID)
			}
			for _, b := range parts[i+1:] {
				if a.Overlaps(b) {
					return fmt.Errorf("floorplan: room %d parts overlap (area double-counted)", r.ID)
				}
			}
		}
		if len(parts) > 1 && !partsConnected(parts) {
			return fmt.Errorf("floorplan: room %d parts are disconnected", r.ID)
		}
		for _, o := range p.rooms {
			if o.ID > r.ID && r.overlapsRoom(o) {
				return fmt.Errorf("floorplan: rooms %d and %d overlap", r.ID, o.ID)
			}
		}
		for _, h := range p.hallways {
			if r.OverlapsRect(h.Strip()) {
				return fmt.Errorf("floorplan: room %d overlaps hallway %d", r.ID, h.ID)
			}
		}
	}
	for _, l := range p.links {
		if int(l.HallwayA) < 0 || int(l.HallwayA) >= len(p.hallways) ||
			int(l.HallwayB) < 0 || int(l.HallwayB) >= len(p.hallways) {
			return fmt.Errorf("floorplan: link %d references unknown hallway", l.ID)
		}
		if p.hallways[l.HallwayA].Center.DistToPoint(l.A) > geom.Eps {
			return fmt.Errorf("floorplan: link %d endpoint A %v not on hallway %d centerline", l.ID, l.A, l.HallwayA)
		}
		if p.hallways[l.HallwayB].Center.DistToPoint(l.B) > geom.Eps {
			return fmt.Errorf("floorplan: link %d endpoint B %v not on hallway %d centerline", l.ID, l.B, l.HallwayB)
		}
		if l.Length < l.A.Dist(l.B)-geom.Eps {
			return fmt.Errorf("floorplan: link %d length %v shorter than straight-line distance %v (breaks Euclidean pruning soundness)",
				l.ID, l.Length, l.A.Dist(l.B))
		}
		if l.Length <= 0 {
			return fmt.Errorf("floorplan: link %d has non-positive length %v", l.ID, l.Length)
		}
	}
	for _, d := range p.doors {
		if int(d.Room) < 0 || int(d.Room) >= len(p.rooms) {
			return fmt.Errorf("floorplan: door %d references unknown room %d", d.ID, d.Room)
		}
		if int(d.Hallway) < 0 || int(d.Hallway) >= len(p.hallways) {
			return fmt.Errorf("floorplan: door %d references unknown hallway %d", d.ID, d.Hallway)
		}
		room := p.rooms[d.Room]
		onBoundary := false
		for _, part := range room.AllParts() {
			if part.DistToPoint(d.Pos) <= geom.Eps {
				onBoundary = true
				break
			}
		}
		if !onBoundary {
			return fmt.Errorf("floorplan: door %d position %v not on room %d boundary", d.ID, d.Pos, d.Room)
		}
		h := p.hallways[d.Hallway]
		if h.Center.DistToPoint(d.HallwayPoint) > geom.Eps {
			return fmt.Errorf("floorplan: door %d hallway point %v not on hallway %d centerline", d.ID, d.HallwayPoint, d.Hallway)
		}
		if d.Pos.Dist(d.HallwayPoint) > h.Width {
			return fmt.Errorf("floorplan: door %d is %v m from hallway %d centerline, exceeding hallway width %v",
				d.ID, d.Pos.Dist(d.HallwayPoint), d.Hallway, h.Width)
		}
	}
	return nil
}
