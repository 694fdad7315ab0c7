package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/anchor"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/query"
)

// This file is the query pipeline (DESIGN.md §18): one Query value, one
// driver (Run) that takes it through gather → prune → preprocess → evaluate,
// and one scatter/gather (Router) shared by the engine's shards and the
// cluster's peers.

// QueryKind selects what a Query asks.
type QueryKind uint8

const (
	// KindRange is the probabilistic range query (Algorithm 3).
	KindRange QueryKind = iota
	// KindKNN is the probabilistic k-nearest-neighbors query (Algorithm 4).
	KindKNN
	// KindOccupancy is the expected number of objects per room, over every
	// known object.
	KindOccupancy
)

// String is the kind label of repro_query_seconds and of the slow-query log.
func (k QueryKind) String() string {
	return [...]string{"range", "knn", "occupancy"}[k]
}

// Query is one spatial question. Window belongs to a range query, Point and
// K to a kNN query; Historical asks for the answer as of the past second At,
// inferred from readings up to At only.
type Query struct {
	Kind       QueryKind
	Window     geom.Rect
	Point      geom.Point
	K          int
	Historical bool
	At         model.Time
}

// RangeQuery asks which objects are inside window, with what probability.
func RangeQuery(window geom.Rect) Query { return Query{Kind: KindRange, Window: window} }

// KNNQuery asks for the k objects nearest to p by indoor walking distance.
func KNNQuery(p geom.Point, k int) Query { return Query{Kind: KindKNN, Point: p, K: k} }

// OccupancyQuery asks for the expected number of objects per room.
func OccupancyQuery() Query { return Query{Kind: KindOccupancy} }

// AsOf returns q asked as of the past second t. t must not be after the
// engine's Now(): a question about a second not yet ingested has no fixed
// answer, because the readings that decide it are still to come, so the
// same question would answer differently later. The HTTP API refuses such
// an at= with a 400; a library caller keeps t at or before Now().
func (q Query) AsOf(t model.Time) Query {
	q.Historical, q.At = true, t
	return q
}

// String renders the query's parameters for the slow-query log.
func (q Query) String() string {
	var s string
	switch q.Kind {
	case KindRange:
		w := q.Window
		s = fmt.Sprintf("window=(%.1f,%.1f,%.1f,%.1f)", w.Min.X, w.Min.Y, w.Max.X-w.Min.X, w.Max.Y-w.Min.Y)
	case KindKNN:
		s = fmt.Sprintf("q=(%.1f,%.1f) k=%d", q.Point.X, q.Point.Y, q.K)
	default:
		s = "all objects"
	}
	if q.Historical {
		s += fmt.Sprintf(" at=%d", q.At)
	}
	return s
}

// Answer is what a Query evaluates to: Result for a range or kNN query,
// Rooms (ranked descending, the hallway share as a NoRoom entry) for an
// occupancy query.
type Answer struct {
	Result model.ResultSet
	Rooms  []RoomOdds
}

// Partition is a holder of objects that can take part in a query: one
// shard's store, that shard under the router's lock, the router itself, or a
// cluster peer behind a transport. Every method answers in ascending object
// order.
//
// Errors are the typed markers of an incomplete answer, returned beside
// whatever could still be computed: a *query.DeadlineError when ctx ran out,
// a *QuarantineError or the cluster's DegradedError naming what could not be
// asked. Dists with no candidates returns at once and does no I/O.
type Partition interface {
	// Infos summarizes every object the partition holds for the pruning
	// stage (as of q.At when q is historical).
	Infos(ctx context.Context, q Query) ([]query.ObjectInfo, error)
	// Dists runs the particle filter-based preprocessing for the candidates
	// the partition holds and returns their anchor-point distributions.
	Dists(ctx context.Context, cands []model.ObjectID, q Query) ([]anchor.ObjDist, error)
	// OwnDists is Infos → prune → Dists over the partition's own objects in
	// one call — one round trip when the partition is remote — for a query
	// whose prune is per object (range, occupancy). candidates is how many
	// objects survived the prune. Asked of a kNN query it does not prune.
	OwnDists(ctx context.Context, q Query, sc Scope) (dists []anchor.ObjDist, candidates int, err error)
}

// Scope is what the coordinator lends a partition that prunes its own
// objects, so that the prune is the coordinator's prune restricted to them:
// the coordinator's stream clock and its unhealthy-reader set (indexed by
// reader, nil when all are healthy). A partition's own clock and reader
// health may differ — a peer is a delivery behind, or saw other readings.
type Scope struct {
	Now       model.Time
	Unhealthy []bool
}

// Coordinator is the half of a query that runs once, wherever the objects
// live: the stream clock and reader health every prune is made under, the
// global kNN pruning stage, Algorithm 3/4, and the telemetry that observes
// the whole.
type Coordinator interface {
	Now() model.Time
	Unhealthy() []bool
	Prune(ctx context.Context, infos []query.ObjectInfo, q Query, now model.Time) ([]model.ObjectID, error)
	Evaluator() *query.Evaluator
	AnchorIndex() *anchor.Index
	Telemetry() *Telemetry
}

// Run answers q over the objects p holds: find the candidates, preprocess
// them where they live, build the APtoObjHT table once and evaluate once. It
// is the only place the stages are strung together — the router runs it over
// its shards, a cluster node over itself and its peers.
//
// Only kNN pruning needs a bound over all objects (the k-th smallest l_i), so
// only a kNN query gathers every summary, prunes once on the coordinator and
// scatters the survivors; a range or occupancy query asks each partition once
// to prune and preprocess its own (OwnDists).
//
// Every stage that could not finish contributes its typed marker and the
// answer covers what was computed; JoinPartial folds the markers into the
// returned error. A nil error means the answer is complete.
func Run(ctx context.Context, c Coordinator, p Partition, q Query) (Answer, error) {
	start := time.Now()
	tr := trace.From(ctx)
	now := q.At
	if !q.Historical {
		now = c.Now()
	}
	var dists []anchor.ObjDist
	var ncands int
	var serr error // the stages before evaluation, in pipeline order
	if q.Kind == KindKNN {
		infos, gerr := p.Infos(ctx, q)
		tr.Since("gather", trace.RouterShard, start)
		pstart := time.Now()
		// An expired prune fails open (all objects admitted); preprocessing
		// cuts the work short instead.
		cands, perr := c.Prune(ctx, infos, q, now)
		tr.Since("prune", trace.RouterShard, pstart)
		var terr error
		dists, terr = p.Dists(ctx, cands, q)
		ncands, serr = len(cands), JoinPartial(gerr, perr, terr)
	} else {
		dists, ncands, serr = p.OwnDists(ctx, q, Scope{Now: now, Unhealthy: c.Unhealthy()})
	}
	mstart := time.Now()
	var ans Answer
	var eerr error
	switch q.Kind {
	case KindRange:
		ans.Result, eerr = c.Evaluator().RangeContext(ctx, anchor.TableOf(dists), q.Window)
	case KindKNN:
		ans.Result, eerr = c.Evaluator().KNNContext(ctx, anchor.TableOf(dists), q.Point, q.K)
	default:
		ans.Rooms = occupancyOn(c.AnchorIndex(), dists)
	}
	tr.Since("merge", trace.RouterShard, mstart)
	tel := c.Telemetry()
	tel.observeQuery(q, now, ncands, start, tr)
	err := JoinPartial(serr, eerr)
	if _, ok := IsDeadline(err); ok {
		tel.deadlineExceeded.Inc()
		tr.SetDeadline()
	}
	return ans, err
}

// Router is a Partition made of partitions that hold disjoint objects; Owner
// maps an object to the index of the part holding it (unused with one part).
type Router struct {
	Parts []Partition
	Owner func(model.ObjectID) int
}

// Infos merges every part's summaries.
func (r Router) Infos(ctx context.Context, q Query) ([]query.ObjectInfo, error) {
	return scatter(len(r.Parts), func(int) bool { return true },
		func(i int) ([]query.ObjectInfo, error) { return r.Parts[i].Infos(ctx, q) }, infoLess)
}

// Dists splits the candidates by owner, preprocesses each share where it
// lives, and merges the parts' disjoint answers.
func (r Router) Dists(ctx context.Context, cands []model.ObjectID, q Query) ([]anchor.ObjDist, error) {
	if len(r.Parts) == 1 {
		return r.Parts[0].Dists(ctx, cands, q)
	}
	shares := make([][]model.ObjectID, len(r.Parts))
	for _, obj := range cands {
		i := r.Owner(obj)
		shares[i] = append(shares[i], obj)
	}
	return scatter(len(r.Parts), func(i int) bool { return len(shares[i]) > 0 },
		func(i int) ([]anchor.ObjDist, error) { return r.Parts[i].Dists(ctx, shares[i], q) }, objDistLess)
}

// OwnDists asks every part for its own candidates' distributions and merges
// the disjoint answers.
func (r Router) OwnDists(ctx context.Context, q Query, sc Scope) ([]anchor.ObjDist, int, error) {
	if len(r.Parts) == 1 {
		return r.Parts[0].OwnDists(ctx, q, sc)
	}
	counts := make([]int, len(r.Parts))
	dists, err := scatter(len(r.Parts), func(int) bool { return true },
		func(i int) (d []anchor.ObjDist, err error) {
			d, counts[i], err = r.Parts[i].OwnDists(ctx, q, sc)
			return d, err
		}, objDistLess)
	total := 0
	for _, n := range counts {
		total += n
	}
	return dists, total, err
}

// scatter asks n partitions and k-way merges their answers — each in
// ascending object order, over disjoint objects — into one. The busy
// partitions run concurrently, all but the last on goroutines of their own
// and the last on the caller's, so one shard costs no goroutine and a
// coordinator's own share overlaps its peers' round trips. The others have
// nothing to do (see Partition) and are asked inline, which lets each
// account for its absence — an idle shard's zero-duration evaluate span.
func scatter[T any](n int, busy func(int) bool, ask func(int) ([]T, error), less func(a, b T) bool) ([]T, error) {
	per := make([][]T, n)
	errs := make([]error, n)
	last := -1
	for i := 0; i < n; i++ {
		if busy(i) {
			last = i
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		if busy(i) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				per[i], errs[i] = ask(i)
			}()
		}
	}
	for i := 0; i < n; i++ {
		if i == last || !busy(i) {
			per[i], errs[i] = ask(i)
		}
	}
	wg.Wait()
	return kMerge(per, less), JoinPartial(errs...)
}

// Marker is a typed partial-answer marker that names what is missing from
// the answer (quarantined shards, unreachable peers). Merge folds another
// marker of the same kind into a new one, so however many partitions report
// a cause, the answer carries it once; ok is false for a different kind.
type Marker interface {
	error
	Merge(other error) (merged error, ok bool)
}

// JoinPartial folds the partial markers of one query into a single error:
// the earliest-stage deadline overrun (errs arrive in pipeline order), one
// Marker per kind, and anything else as it is. One survivor is returned
// bare, several through errors.Join, none as nil.
func JoinPartial(errs ...error) error {
	var out []error
	var add func(err error)
	add = func(err error) {
		if err == nil {
			return
		}
		if joined, ok := err.(interface{ Unwrap() []error }); ok {
			for _, sub := range joined.Unwrap() {
				add(sub)
			}
			return
		}
		_, late := err.(*query.DeadlineError)
		for i, have := range out {
			if _, ok := have.(*query.DeadlineError); ok && late {
				return
			}
			if m, ok := have.(Marker); ok {
				if merged, ok := m.Merge(err); ok {
					out[i] = merged
					return
				}
			}
		}
		out = append(out, err)
	}
	for _, err := range errs {
		add(err)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return errors.Join(out...)
	}
}

// Union merges two markers' lists of what is missing, ascending and without
// repeats.
func Union[T int | string](a, b []T) []T {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// IsDeadline reports whether err is a query deadline overrun and extracts
// the typed error.
func IsDeadline(err error) (*query.DeadlineError, bool) {
	var de *query.DeadlineError
	if errors.As(err, &de) {
		return de, true
	}
	return nil, false
}

// Querier is anything that answers a Query: the router (a System is one) or
// a cluster node.
type Querier interface {
	Query(ctx context.Context, q Query) (Answer, error)
}

// QueryMethods spells the three query kinds the way callers wrote them
// before Query existed — plain, under a context, as of a past second — once,
// over whichever Querier embeds it. The frozen benchmark harness compiles
// against the …Context forms; repro.go, cmd/replay, the examples and the
// tests use the rest. No interface lists them. The plain and historical
// forms drop the partial marker.
type QueryMethods struct{ Of Querier }

// RangeQueryContext answers a snapshot range query under ctx's deadline. On
// expiry it returns what it has — a result over the objects preprocessed so
// far — with a *query.DeadlineError naming the stage that ran out.
func (m QueryMethods) RangeQueryContext(ctx context.Context, window geom.Rect) (model.ResultSet, error) {
	ans, err := m.Of.Query(ctx, RangeQuery(window))
	return ans.Result, err
}

// KNNQueryContext answers a snapshot kNN query under ctx's deadline.
func (m QueryMethods) KNNQueryContext(ctx context.Context, p geom.Point, k int) (model.ResultSet, error) {
	ans, err := m.Of.Query(ctx, KNNQuery(p, k))
	return ans.Result, err
}

// OccupancyContext answers the occupancy query under ctx's deadline.
func (m QueryMethods) OccupancyContext(ctx context.Context) ([]RoomOdds, error) {
	ans, err := m.Of.Query(ctx, OccupancyQuery())
	return ans.Rooms, err
}

// RangeQuery answers a snapshot indoor range query: candidate pruning,
// preprocessing, then Algorithm 3.
func (m QueryMethods) RangeQuery(window geom.Rect) model.ResultSet {
	rs, _ := m.RangeQueryContext(context.Background(), window)
	return rs
}

// KNNQuery answers a snapshot indoor kNN query: distance pruning,
// preprocessing, then Algorithm 4.
func (m QueryMethods) KNNQuery(p geom.Point, k int) model.ResultSet {
	rs, _ := m.KNNQueryContext(context.Background(), p, k)
	return rs
}

// Occupancy returns the expected number of objects per room — the
// building-wide density view facilities dashboards want.
func (m QueryMethods) Occupancy() []RoomOdds {
	odds, _ := m.OccupancyContext(context.Background())
	return odds
}

// RangeQueryAt answers a historical range query: the probabilistic result as
// of time t, inferred from readings up to t only. With KeepHistory it
// reaches arbitrarily far back; otherwise it is limited to the live
// retention window.
func (m QueryMethods) RangeQueryAt(window geom.Rect, t model.Time) model.ResultSet {
	ans, _ := m.Of.Query(context.Background(), RangeQuery(window).AsOf(t))
	return ans.Result
}

// KNNQueryAt answers a historical kNN query as of time t.
func (m QueryMethods) KNNQueryAt(p geom.Point, k int, t model.Time) model.ResultSet {
	ans, _ := m.Of.Query(context.Background(), KNNQuery(p, k).AsOf(t))
	return ans.Result
}
