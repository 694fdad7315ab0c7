package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/anchor"
	"repro/internal/model"
)

// One RPC is one POST /cluster/rpc whose body is a request frame and whose
// reply is a response frame (wire.go). The trace ID additionally rides the
// X-Repro-Trace-Id header so intermediaries (and humans with curl) can follow
// a forwarded request without decoding the body.
const (
	rpcPath       = "/cluster/rpc"
	traceIDHeader = "X-Repro-Trace-Id"
	fromHeader    = "X-Repro-From"

	// maxRequestBytes caps a request body, like the server's /ingest cap: a
	// forwarded sub-batch is never larger than the delivery it came from.
	maxRequestBytes = 8 << 20
	// maxResponseBytes caps what a coordinator will read of a reply. Replies
	// carry distributions, ~10 bytes a mass: this is over a million objects.
	maxResponseBytes = 256 << 20
)

// HTTPTransport is the production Transport: one POST per RPC over a shared
// connection pool.
type HTTPTransport struct {
	// Client is the underlying HTTP client; nil uses a pooled default whose
	// per-request timeout comes from the caller's context.
	Client *http.Client
}

// NewHTTPTransport builds an HTTPTransport with a pooled client.
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{Client: &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

// Send implements Transport.
func (t *HTTPTransport) Send(ctx context.Context, addr string, req *Request) (*Response, error) {
	qbuf := getFrame()
	frame := req.Encode((*qbuf)[:0])
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+rpcPath, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hreq.Header.Set(fromHeader, req.From)
	if req.TraceID != 0 {
		hreq.Header.Set(traceIDHeader, strconv.FormatUint(req.TraceID, 16))
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	// The request frame goes back to the pool only once a 200 shows the peer
	// read all of it; on any other path the HTTP client may still be writing
	// from it after Do returns.
	hresp, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return nil, fmt.Errorf("cluster: peer %s: %s: %s", addr, hresp.Status, bytes.TrimSpace(msg))
	}
	putFrame(qbuf, frame)
	rbuf := getFrame()
	body, err := readBody(*rbuf, hresp.Body, hresp.ContentLength, maxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("cluster: read response from %s: %w", addr, err)
	}
	resp, err := DecodeResponse(body)
	putFrame(rbuf, body)
	if err != nil {
		return nil, fmt.Errorf("cluster: decode response from %s: %w", addr, err)
	}
	resp.sent, resp.received = len(frame), len(body)
	if req.Op == OpEvaluate {
		// Harness-kept adapter: the frozen benchmark harness reads an
		// OpEvaluate reply as a map of maps. The program never sends
		// OpEvaluate, so its own path never builds one.
		resp.Dists = make(map[model.ObjectID]map[anchor.ID]float64, len(resp.ObjDists))
		for _, od := range resp.ObjDists {
			resp.Dists[od.Object] = od.Dist.Map()
		}
	}
	return resp, nil
}

var errBodyTooLarge = errors.New("body exceeds the size limit")

// readBody reads one whole RPC body into buf's array (or a larger one): a
// single read of the declared length, or up to limit when none is declared.
func readBody(buf []byte, r io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, errBodyTooLarge
	}
	if length < 0 {
		body, err := io.ReadAll(io.LimitReader(r, limit+1))
		if err == nil && int64(len(body)) > limit {
			err = errBodyTooLarge
		}
		return body, err
	}
	if int64(cap(buf)) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// RPCHandler returns the peer-facing HTTP handler the server mounts at
// POST /cluster/rpc: it reads the size-capped body in one go, decodes the
// request frame, restores the propagated trace ID from the header when the
// body lacks one, and serves it through HandleRPC.
func (n *Node) RPCHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		buf := getFrame()
		body, err := readBody(*buf, http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength, maxRequestBytes)
		var tooLarge *http.MaxBytesError
		if errors.Is(err, errBodyTooLarge) || errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("rpc body exceeds %d bytes", maxRequestBytes), http.StatusRequestEntityTooLarge)
			return
		}
		var req *Request
		if err == nil {
			req, err = DecodeRequest(body)
		}
		nin := len(body)
		putFrame(buf, body)
		if err != nil {
			http.Error(w, "bad rpc body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.TraceID == 0 {
			if h := r.Header.Get(traceIDHeader); h != "" {
				if id, err := strconv.ParseUint(h, 16, 64); err == nil {
					req.TraceID = id
				}
			}
		}
		resp, err := n.HandleRPC(r.Context(), req)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrDeadlineRange) {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
			return
		}
		buf = getFrame()
		out := resp.Encode((*buf)[:0])
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		_, _ = w.Write(out) // a peer that hung up has already given up on the reply
		n.countBytes(req.Op, len(out), nin)
		putFrame(buf, out)
	})
}
