package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
)

// conn is one connection of load: a client whose transport holds at most
// one keep-alive connection, used by exactly one goroutine.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			// A batch body is 80-160 KB. With the default 4 KB buffer the
			// client hands it to the kernel in 20-40 writes that the server's
			// streaming decode then waits for one by one, which put 1-3 ms of
			// the harness's own making into every ingest latency.
			WriteBufferSize: 256 << 10,
		},
		Timeout: 30 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// reply is one completed HTTP exchange. body aliases the conn's buffer and
// is valid until the next call on the same conn.
type reply struct {
	status int
	body   []byte
	start  time.Time
	end    time.Time // after the last body byte was read
}

func (c *conn) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{start: time.Now()}
	resp, err := c.client.Do(req)
	if err != nil {
		return r, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status, r.body = resp.StatusCode, c.buf.Bytes()
	return r, err
}

func (c *conn) send(o *op) (reply, error) {
	if o.kind == opIngest {
		return c.do(http.MethodPost, "/ingest", o.body)
	}
	return c.do(http.MethodGet, o.path, nil)
}

func (c *conn) getJSON(path string, v any) error {
	r, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, r.status, firstLine(r.body))
	}
	return json.Unmarshal(r.body, v)
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// Response documents, as far as the validator reads them.

type ingestResp struct {
	Now      *model.Time `json:"now"`
	Received *int        `json:"received"`
	Accepted *int        `json:"accepted"`
	Dropped  int         `json:"dropped"`
}

type objProb struct {
	Object model.ObjectID `json:"object"`
	P      float64        `json:"p"`
}

type queryResp struct {
	Result  *[]objProb `json:"result"`
	Partial bool       `json:"partial"`
}

type occupancyResp struct {
	Occupancy *[]struct {
		Room string  `json:"room"`
		P    float64 `json:"p"`
	} `json:"occupancy"`
	Partial bool `json:"partial"`
}

// errShed marks a 429: not only a failed operation but a sign the run
// overloaded the server, which invalidates every latency in it.
var errShed = fmt.Errorf("shed with 429")

// validate checks one reply against the op that caused it and returns the
// decoded answer of a range or kNN query. Any error counts the operation as
// failed: transport error or non-2xx (the caller passes those in as err and
// status), a partial answer, an ingest that did not accept every reading it
// received, a malformed document, or a probability outside [0,1].
func validate(o *op, status int, body []byte) ([]objProb, error) {
	if status == http.StatusTooManyRequests {
		return nil, errShed
	}
	if status < 200 || status > 299 {
		return nil, fmt.Errorf("%s: status %d: %s", o.kind, status, firstLine(body))
	}
	switch o.kind {
	case opIngest:
		var r ingestResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("ingest: malformed response: %v", err)
		}
		if r.Now == nil || r.Received == nil || r.Accepted == nil {
			return nil, fmt.Errorf("ingest: response lacks now/received/accepted: %s", firstLine(body))
		}
		if *r.Received != len(o.readings) || *r.Accepted != *r.Received || r.Dropped != 0 {
			return nil, fmt.Errorf("ingest t=%d: sent %d, received %d, accepted %d, dropped %d",
				o.t, len(o.readings), *r.Received, *r.Accepted, r.Dropped)
		}
		if *r.Now != o.t {
			return nil, fmt.Errorf("ingest t=%d: server clock at %d", o.t, *r.Now)
		}
		return nil, nil
	case opOccupancy:
		var r occupancyResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("occupancy: malformed response: %v", err)
		}
		if r.Occupancy == nil {
			return nil, fmt.Errorf("occupancy: response lacks occupancy: %s", firstLine(body))
		}
		if r.Partial {
			return nil, fmt.Errorf("occupancy: partial answer")
		}
		for _, e := range *r.Occupancy {
			// Expected head counts, not probabilities: only the sign is bounded.
			if math.IsNaN(e.P) || math.IsInf(e.P, 0) || e.P < 0 {
				return nil, fmt.Errorf("occupancy: room %q has expectation %v", e.Room, e.P)
			}
		}
		return nil, nil
	default:
		var r queryResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("%s: malformed response: %v", o.kind, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s: response lacks result: %s", o.kind, firstLine(body))
		}
		if r.Partial {
			return nil, fmt.Errorf("%s: partial answer", o.kind)
		}
		seen := make(map[model.ObjectID]bool, len(*r.Result))
		for _, e := range *r.Result {
			// Rounding in the evaluator's sums can land a hair above 1.
			if math.IsNaN(e.P) || e.P < 0 || e.P > 1+1e-9 {
				return nil, fmt.Errorf("%s: object %d has probability %v", o.kind, e.Object, e.P)
			}
			if seen[e.Object] {
				return nil, fmt.Errorf("%s: object %d listed twice", o.kind, e.Object)
			}
			seen[e.Object] = true
		}
		return *r.Result, nil
	}
}

// promText is one Prometheus text-format scrape: series (name plus label
// set, as printed) to value.
type promText map[string]float64

func parseProm(b []byte) promText {
	m := promText{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// sum adds every series of the metric name whose label set contains all the
// given `key="value"` fragments.
func (m promText) sum(name string, labels ...string) float64 {
	t := 0.0
series:
	for k, v := range m {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(k, l) {
				continue series
			}
		}
		t += v
	}
	return t
}

// buckets returns the cumulative bucket counts of a histogram, summed over
// every label set, in ascending le order.
func (m promText) buckets(name string) (les, cum []float64) {
	byLe := map[float64]float64{}
	for k, v := range m {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		s := k[i+4:]
		s = s[:strings.IndexByte(s, '"')]
		le, err := strconv.ParseFloat(s, 64) // accepts "+Inf"
		if err != nil {
			continue
		}
		byLe[le] += v
	}
	for le := range byLe {
		les = append(les, le)
	}
	sort.Float64s(les)
	for _, le := range les {
		cum = append(cum, byLe[le])
	}
	return les, cum
}

// sub returns m - base per series (series absent from base count from 0).
func (m promText) sub(base promText) promText {
	d := make(promText, len(m))
	for k, v := range m {
		d[k] = v - base[k]
	}
	return d
}

// statsDoc is GET /stats.
type statsDoc struct {
	Now  model.Time `json:"now"`
	Work struct {
		FiltersRun       int
		FiltersResumed   int
		RangeQueries     int
		KNNQueries       int
		ReadingsIngested int
		ReadingsDropped  int
		ReadingsPending  int
	} `json:"work"`
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
}
