package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

// liveOpts sizes one live run.
type liveOpts struct {
	seconds     float64 // measured section
	setups      int     // how often set-up is repeated (its median is reported)
	restarts    int     // how often the kill/restart is repeated
	serverTrace bool    // leave the server's request tracing at product default
	floor       bool    // also measure the HTTP floor (GET /healthz round trips)
	workDir     string  // parent of the per-run data directories
}

// liveResult is everything one live run observed.
type liveResult struct {
	w workload

	lat [numOpKinds][]float64 // ms per successful op, in completion order

	setupS    []float64
	recoveryS []float64
	rssMB     []float64 // resident set sampled every 250 ms, see rssSection
	rssPeakMB float64

	// How much slower than nominal the host ran during the set-ups and during
	// the measured section (see hostref.go); gated timings are divided by it.
	setupSlowdown, slowdown float64

	attempted, failed int
	failures          []string // the first few, for the report
	shed              int      // 429s seen

	hit []float64 // per scored kNN query
	kl  []float64 // per scored range query with a non-empty truth

	latenessMs []float64 // open loop: how late each op left once it was due and its connection free
	genStallMs float64   // time a due op waited for the generator

	start     time.Time     // of the measured section
	wall      time.Duration // measured section
	accEnd    time.Time     // closed loop: when the accuracy prefix was complete
	serverCPU float64       // seconds, measured section
	selfCPU   float64

	units             int // cycles or stream seconds completed
	streamSeconds     int // ingests in the measured section
	bytesIn, bytesOut int
	offered           int // readings sent, set-up included

	before, after []statsDoc // per node, around the measured section
	promDelta     []promText // per node, measured section
	promAfter     []promText
	httpFloorUs   float64
	invalid       string // why the run's timings cannot be trusted ("" when they can)
	incorrect     []string
}

func (r *liveResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// absorb adds another tally's operation counts, not its timings.
func (r *liveResult) absorb(o *liveResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.shed += o.shed
	r.failures = append(r.failures, o.failures...)
}

// record accounts one completed exchange. latency is measured by the caller
// (from the due time in an open loop). score says the stream clock was known
// to equal the op's truth second while the query ran.
func (r *liveResult) record(o *op, rep reply, err error, latency time.Duration, score bool) {
	r.attempted++
	if err != nil {
		r.fail("%s t=%d: %v", o.kind, o.t, err)
		return
	}
	res, verr := validate(o, rep.status, rep.body)
	if verr != nil {
		if verr == errShed {
			r.shed++
		}
		r.fail("%v", verr)
		return
	}
	r.lat[o.kind] = append(r.lat[o.kind], float64(latency)/float64(time.Millisecond))
	switch o.kind {
	case opIngest:
		r.bytesIn += len(o.body)
		r.offered += len(o.readings)
	case opRange:
		r.bytesOut += len(rep.body)
		if score && len(o.truth) > 0 {
			truth := make(model.ResultSet, len(o.truth))
			for _, id := range o.truth {
				truth[id] = 1
			}
			ans := make(model.ResultSet, len(res))
			for _, e := range res {
				ans[e.Object] = e.P
			}
			r.kl = append(r.kl, metrics.KLDivergence(truth, ans, metrics.DefaultEpsilon))
		}
	case opKNN:
		r.bytesOut += len(rep.body)
		if score {
			// The server lists the answer by descending probability.
			top := make([]model.ObjectID, 0, o.k)
			for i := 0; i < len(res) && i < o.k; i++ {
				top = append(top, res[i].Object)
			}
			r.hit = append(r.hit, metrics.HitRate(top, o.truth))
		}
	}
}

// runLive drives one workload against freshly launched server(s): repeated
// set-up, the measured section, the ledger and validity checks, and the
// kill/restart.
func runLive(l launcher, w workload, seed int64, o liveOpts) (*liveResult, error) {
	res := &liveResult{w: w}
	gen := newGenerator(w, seed)
	warm := gen.warmup()
	ref := startHostRef()
	defer ref.halt()
	var setups []interval

	var set serverSet
	var dataDir string
	defer func() {
		if set != nil {
			set.kill()
		}
	}()
	for i := 0; i < o.setups; i++ {
		if set != nil {
			set.kill()
			set = nil
		}
		var err error
		if dataDir, err = os.MkdirTemp(o.workDir, "data-"+w.name+"-"); err != nil {
			return nil, err
		}
		var tally liveResult
		start := time.Now()
		if set, err = l.launch(w, seed, dataDir, o.serverTrace); err != nil {
			return nil, err
		}
		c := newConn(set.urls()[0])
		for j := range warm {
			rep, err := c.send(&warm[j])
			tally.record(&warm[j], rep, err, rep.end.Sub(rep.start), false)
		}
		c.close()
		res.setupS = append(res.setupS, time.Since(start).Seconds())
		setups = append(setups, interval{start, time.Now()})
		// Set-up operations count as attempted, but their timings belong to
		// setup_s alone, and only the surviving server's readings enter the
		// ledger.
		res.absorb(&tally)
		res.offered = tally.offered
	}
	urls := set.urls()
	ctl := make([]*conn, len(urls))
	for i, u := range urls {
		ctl[i] = newConn(u)
		defer ctl[i].close()
	}

	scrape := func() ([]statsDoc, []promText, error) {
		st := make([]statsDoc, len(ctl))
		pm := make([]promText, len(ctl))
		for i, c := range ctl {
			if err := c.getJSON("/stats", &st[i]); err != nil {
				return nil, nil, err
			}
			rep, err := c.do(http.MethodGet, "/metrics", nil)
			if err != nil || rep.status != http.StatusOK {
				return nil, nil, fmt.Errorf("GET /metrics on %s: status %d, %v", c.base, rep.status, err)
			}
			pm[i] = parseProm(rep.body)
		}
		return st, pm, nil
	}
	var promBefore []promText
	var err error
	if res.before, promBefore, err = scrape(); err != nil {
		return nil, err
	}
	cpu0, self0 := set.cpuSeconds(), selfCPUSeconds()
	type rssSample struct {
		at time.Time
		mb float64
	}
	stopSampling := make(chan struct{})
	sampled := make(chan []rssSample)
	go func() {
		var rss []rssSample
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rss = append(rss, rssSample{time.Now(), set.rssMB()})
			case <-stopSampling:
				sampled <- rss
				return
			}
		}
	}()

	if w.open {
		res.runOpen(gen, urls[0], o.seconds, warm[warmupSeconds-1].t)
	} else {
		res.runClosed(gen, urls[0], o.seconds)
	}

	close(stopSampling)
	// The server keeps the stream's history, so its resident set grows with
	// the stream seconds ingested. An open loop ingests on a schedule; a
	// closed loop gets as far as the host's speed lets it, so its resident
	// set is taken over the accuracy prefix, which is the same work every run.
	rssEnd := res.start.Add(res.wall)
	if !w.open {
		rssEnd = res.accEnd
	}
	for _, s := range <-sampled {
		if !s.at.After(rssEnd) {
			res.rssMB = append(res.rssMB, s.mb)
		}
	}
	if len(res.rssMB) == 0 { // a section shorter than the sampling period
		res.rssMB = []float64{set.rssMB()}
	}
	res.serverCPU, res.selfCPU = set.cpuSeconds()-cpu0, selfCPUSeconds()-self0
	ref.halt()
	res.setupSlowdown = ref.slowdown(setups...)
	res.slowdown = ref.slowdown(interval{res.start, res.start.Add(res.wall)})
	if res.after, res.promAfter, err = scrape(); err != nil {
		return nil, err
	}
	for i := range res.promAfter {
		res.promDelta = append(res.promDelta, res.promAfter[i].sub(promBefore[i]))
	}
	// The HTTP floor: a request that does no work, sent the way the workload
	// sends — back to back in a closed loop, paced in an open one, where every
	// request also pays for waking an idle client, server and vCPU.
	var floor []float64
	for i := 0; o.floor && i < 100; i++ {
		if w.open {
			time.Sleep(time.Second / time.Duration(w.qps))
		}
		rep, err := ctl[0].do(http.MethodGet, "/healthz", nil)
		if err != nil || rep.status != http.StatusOK {
			return nil, fmt.Errorf("GET /healthz: status %d, %v", rep.status, err)
		}
		floor = append(floor, float64(rep.end.Sub(rep.start))/float64(time.Microsecond))
	}
	res.httpFloorUs = median(floor)
	res.rssPeakMB = set.rssPeakMB()

	res.checkLedger()
	res.checkValidity()
	res.checkAccuracy()

	// Crash and restart. SIGKILL leaves the OS page cache intact, so on a
	// durable shape this times snapshot load plus WAL replay, not the
	// device; on an in-memory shape it is the bare start-up.
	restarts := o.restarts
	if !w.durable {
		// Bare start-up is milliseconds and mostly fork/exec jitter: take
		// the median of more of them.
		restarts *= 3
	}
	for i := 0; i < restarts; i++ {
		set.kill()
		start := time.Now()
		if set, err = l.launch(w, seed, dataDir, o.serverTrace); err != nil {
			return nil, fmt.Errorf("restart after kill: %w", err)
		}
		res.recoveryS = append(res.recoveryS, time.Since(start).Seconds())
		if !w.durable {
			continue
		}
		for n, u := range set.urls() {
			c := newConn(u)
			var st statsDoc
			err := c.getJSON("/stats", &st)
			c.close()
			if err != nil {
				return nil, err
			}
			want := res.after[n]
			if st.Now != want.Now || st.Work.ReadingsIngested != want.Work.ReadingsIngested {
				res.incorrect = append(res.incorrect, fmt.Sprintf(
					"recovery: node %d came back at now=%d ingested=%d, was now=%d ingested=%d before the kill",
					n, st.Now, st.Work.ReadingsIngested, want.Now, want.Work.ReadingsIngested))
			}
		}
	}
	return res, nil
}

// feed runs the generator ahead of the send loop, handing each unit to emit
// until emit reports the script is over or ctx ends.
func feed(ctx context.Context, gen *generator, emit func([]op) bool) {
	for ctx.Err() == nil {
		if !emit(gen.unit()) {
			return
		}
	}
}

// take receives the next item, adding to stall the time spent waiting for
// the generator (the channel was empty).
func take[T any](ch <-chan T, stall *time.Duration) (T, bool) {
	select {
	case v, ok := <-ch:
		return v, ok
	default:
	}
	start := time.Now()
	v, ok := <-ch
	*stall += time.Since(start)
	return v, ok
}

// prefill waits until the generator has queued want items (its whole
// look-ahead, or a short script's every item), so the measured section does
// not start on an empty queue.
func prefill[T any](ch chan T, want int) {
	if want > cap(ch) {
		want = cap(ch)
	}
	for deadline := time.Now().Add(5 * time.Second); len(ch) < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// runClosed is the closed-loop measured section: one connection sends the
// script's ops back to back for the given time, and at least the accuracy
// prefix, always ending on a cycle boundary.
func (r *liveResult) runClosed(gen *generator, url string, seconds float64) {
	ctx, cancel := context.WithCancel(context.Background())
	units := make(chan []op, lookahead)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feed(ctx, gen, func(u []op) bool {
			select {
			case units <- u:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	prefill(units, lookahead)

	c := newConn(url)
	defer c.close()
	var stall time.Duration
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	r.start = start
	for time.Since(start) < limit || r.units < r.w.accCycles {
		u, _ := take(units, &stall)
		for i := range u {
			rep, err := c.send(&u[i])
			r.record(&u[i], rep, err, rep.end.Sub(rep.start), u[i].scored)
			if u[i].kind == opIngest {
				r.streamSeconds++
			}
		}
		r.units++
		if r.units == r.w.accCycles {
			r.accEnd = time.Now()
		}
	}
	r.wall = time.Since(start)
	r.genStallMs = float64(stall) / float64(time.Millisecond)

	// Carry the stream on, untimed, to the middle of a snapshot interval, so
	// the kill that follows always leaves the same amount of WAL to replay
	// however many cycles the machine completed.
	var pad liveResult
	for acked := warmupSeconds + r.streamSeconds; r.w.durable && acked%snapshotEvery != snapshotEvery/2; {
		u, _ := take(units, &stall)
		for i := range u {
			if u[i].kind != opIngest || acked%snapshotEvery == snapshotEvery/2 {
				break
			}
			rep, err := c.send(&u[i])
			pad.record(&u[i], rep, err, 0, false)
			acked++
		}
	}
	r.absorb(&pad)
	r.offered += pad.offered
	cancel()
	wg.Wait()
}

// runOpen is the open-loop measured section: ingest on one connection and
// queries on another, each op sent at its due time whatever the server is
// doing and timed from that due time, so a stall shows in every request it
// delays.
func (r *liveResult) runOpen(gen *generator, url string, seconds float64, ackedT model.Time) {
	total := int(seconds * float64(r.w.streamRate))
	perSlot := r.w.qps / r.w.streamRate
	ingests := make(chan op, lookahead)
	queries := make(chan op, lookahead*perSlot)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ingests)
		defer close(queries)
		n := 0
		feed(ctx, gen, func(u []op) bool {
			for _, o := range u {
				ch := queries
				if o.kind == opIngest {
					ch = ingests
				}
				select {
				case ch <- o:
				case <-ctx.Done():
					return false
				}
			}
			n++
			return n < total
		})
	}()
	prefill(ingests, total)

	// The stream clock as the load generator knows it: acked is the newest
	// batch second the server confirmed, inflight the one being sent (0:
	// none). A query is scored against its ground truth only when the clock
	// provably stood at the truth's second from before the query left until
	// after its answer arrived.
	var acked, inflight atomic.Int64
	acked.Store(int64(ackedT))
	clockAt := func(t model.Time) bool { return inflight.Load() == 0 && acked.Load() == int64(t) }

	start := time.Now()
	r.start = start
	// part is one connection's private tally, merged after both are done.
	type part struct {
		res      liveResult
		stall    time.Duration
		lateness []float64
	}
	run := func(ch <-chan op, p *part) {
		defer wg.Done()
		c := newConn(url)
		defer c.close()
		free := start // when this connection last became idle
		for {
			o, ok := take(ch, &p.stall)
			if !ok {
				return
			}
			due := start.Add(o.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			score := false
			if o.kind == opIngest {
				inflight.Store(int64(o.t))
			} else {
				score = clockAt(o.t)
			}
			rep, err := c.send(&o)
			if o.kind == opIngest {
				if err == nil {
					acked.Store(int64(o.t))
				}
				inflight.Store(0)
				p.res.streamSeconds++
			} else {
				score = score && clockAt(o.t)
			}
			// Lateness is the generator's own delay: from the moment the op
			// was due and its connection idle to the moment it left. Waiting
			// behind a slow previous answer is the server's doing and is
			// charged to latency instead.
			ready := due
			if free.After(ready) {
				ready = free
			}
			p.lateness = append(p.lateness, float64(rep.start.Sub(ready))/float64(time.Millisecond))
			free = rep.end
			if err != nil {
				free = time.Now()
			}
			p.res.record(&o, rep, err, rep.end.Sub(due), score)
		}
	}
	var in, qu part
	in.res.w, qu.res.w = r.w, r.w
	wg.Add(2)
	go run(ingests, &in)
	go run(queries, &qu)
	wg.Wait()
	r.wall = time.Since(start)
	for _, p := range []*part{&in, &qu} {
		r.absorb(&p.res)
		for k := range r.lat {
			r.lat[k] = append(r.lat[k], p.res.lat[k]...)
		}
		r.hit = append(r.hit, p.res.hit...)
		r.kl = append(r.kl, p.res.kl...)
		r.bytesIn += p.res.bytesIn
		r.bytesOut += p.res.bytesOut
		r.offered += p.res.offered
		r.streamSeconds += p.res.streamSeconds
		r.latenessMs = append(r.latenessMs, p.lateness...)
		r.genStallMs += float64(p.stall) / float64(time.Millisecond)
	}
	r.units = in.res.streamSeconds
}

// checkLedger balances the conservation ledger at the end of the measured
// section: every reading offered since the last set-up is ingested, none is
// dropped and none is pending, summed over the nodes.
func (r *liveResult) checkLedger() {
	ingested, dropped, pending := 0, 0, 0
	for _, st := range r.after {
		ingested += st.Work.ReadingsIngested
		dropped += st.Work.ReadingsDropped
		pending += st.Work.ReadingsPending
	}
	if msg := ledgerImbalance(r.offered, ingested, dropped, pending); msg != "" {
		r.incorrect = append(r.incorrect, msg)
	}
}

// ledgerImbalance states what is wrong with a ledger, or "" when it
// balances with nothing dropped and nothing pending.
func ledgerImbalance(offered, ingested, dropped, pending int) string {
	if lost := metrics.SilentLoss(offered, ingested, dropped, pending); lost != 0 {
		return fmt.Sprintf("ledger: offered %d = ingested %d + dropped %d + pending %d + %d unaccounted",
			offered, ingested, dropped, pending, lost)
	}
	if dropped != 0 || pending != 0 {
		return fmt.Sprintf("ledger: %d readings dropped, %d pending; the workloads are built to lose none", dropped, pending)
	}
	return ""
}

// maxLatenessMs is how late the generator may run at its 99th percentile
// before an open-loop run's latencies stop meaning what they claim.
const maxLatenessMs = 10

// checkValidity refuses a run whose timings are not those of the intended
// load: the server shed or degraded, or the generator ran late.
func (r *liveResult) checkValidity() {
	degraded, shed := 0.0, 0.0
	for _, d := range r.promDelta {
		degraded += d.sum("repro_degraded_transitions_total")
		shed += d.sum("repro_admission_shed_total")
	}
	switch {
	case degraded > 0:
		r.invalid = fmt.Sprintf("server entered degraded mode (%v transitions)", degraded)
	case shed > 0 || r.shed > 0:
		r.invalid = fmt.Sprintf("server shed queries (%v counted, %d 429s seen)", shed, r.shed)
	case len(r.latenessMs) > 0 && percentile(r.latenessMs, 0.99) > maxLatenessMs:
		r.invalid = fmt.Sprintf("load generator ran late: p99 %.1f ms", percentile(r.latenessMs, 0.99))
	}
}

// minScored is the fewest scored queries of each type an accuracy metric
// may rest on.
const minScored = 20

func (r *liveResult) checkAccuracy() {
	if r.w.hitFloor == 0 && r.w.klCeil >= 1e9 {
		return
	}
	if len(r.hit) < minScored || len(r.kl) < minScored {
		r.incorrect = append(r.incorrect, fmt.Sprintf("accuracy: only %d kNN and %d range queries could be scored", len(r.hit), len(r.kl)))
		return
	}
	if h := mean(r.hit); h < r.w.hitFloor {
		r.incorrect = append(r.incorrect, fmt.Sprintf("accuracy: knn_hit_rate %.4f below the floor %.4f", h, r.w.hitFloor))
	}
	if k := mean(r.kl); k > r.w.klCeil {
		r.incorrect = append(r.incorrect, fmt.Sprintf("accuracy: range_kl %.4f above the ceiling %.4f", k, r.w.klCeil))
	}
}
