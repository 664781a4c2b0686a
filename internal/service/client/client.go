// Package client is the typed Go client for the vpserved simulation
// service (internal/service). It wraps the /v1 JSON API: batch-sync
// simulation (a single spec is a one-spec frame), program upload and
// listing, and health and stats reads.
// Reachable from outside the module via the repro facade (repro.NewClient).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// Client talks to one vpserved instance.
type Client struct {
	base string
	hc   *http.Client
}

// sharedTransport is the tuned http.Transport every default-constructed
// client rides: keep-alive on, a deep idle pool per host so warm dispatch
// reuses one TCP connection instead of re-handshaking, and no compression
// (records are small JSON; gzip would cost more than the bytes it saves on
// loopback). Shared across clients so a fleet front talking to N shards
// holds one pool, not N.
var sharedTransport = &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
	DisableCompression:  true,
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8437").
// The underlying http.Client has no timeout: per-call budgets come from the
// caller's context. All clients
// built here share one tuned keep-alive transport (sharedTransport), so the
// warm dispatch path never pays connection setup per call.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Transport: sharedTransport}}
}

// APIError is a non-2xx response decoded from the server's error envelope.
// It is the service-level type (status, stable code, message): assert on it
// with errors.As at any layer above the client, RemoteRunner included.
type APIError = service.APIError

// Close releases idle connections held by the underlying transport. The
// client remains usable afterwards; Close only returns pooled resources.
func (c *Client) Close() {
	c.hc.CloseIdleConnections()
}

// do performs one JSON round-trip. in == nil sends no body; out == nil
// discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError rebuilds the server's typed APIError from the error envelope;
// non-JSON bodies (a proxy in the way, a crash page) degrade to a code-less
// APIError carrying the raw text.
func decodeError(resp *http.Response) error {
	var e APIError
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(buf, &e) != nil || e.Msg == "" {
		e = APIError{Msg: strings.TrimSpace(string(buf))}
	}
	e.Status = resp.StatusCode
	return &e
}

// SimulateBatchSync runs many specs in one synchronous round trip (POST
// /v1/simulate/batch-sync) and returns their records in request order; the
// daemon canonicalizes and validates each spec. The frame is
// all-or-nothing: any failing spec fails the whole call with the server's
// typed APIError for the first failure in request order.
//
// This is the hot path of a fleet front, so the response body is read into
// one buffer sized from its Content-Length (at most service.MaxBody up
// front) and parsed by the frame codec directly (one scanner pass) instead
// of going through json.Decoder's extra validation walk.
func (c *Client) SimulateBatchSync(ctx context.Context, specs []harness.Spec) ([]harness.Record, error) {
	in, err := service.BatchSyncRequest{Specs: specs}.MarshalJSON()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/simulate/batch-sync", bytes.NewReader(in))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	body, err := service.ReadBody(resp.Body, resp.ContentLength, service.MaxBody)
	if err != nil {
		return nil, err
	}
	var out service.BatchSyncResponse
	if err := out.UnmarshalJSON(body); err != nil {
		return nil, err
	}
	if len(out.Records) != len(specs) {
		return nil, fmt.Errorf("service: batch-sync returned %d records for %d specs", len(out.Records), len(specs))
	}
	return out.Records, nil
}

// UploadProgram registers a binary-encoded program with the daemon (POST
// /v1/programs) and returns its canonical workload id. Content-addressed and
// idempotent: the same bytes always answer the same id, from any client.
func (c *Client) UploadProgram(ctx context.Context, encoded []byte) (service.ProgramInfo, error) {
	var info service.ProgramInfo
	err := c.do(ctx, http.MethodPost, "/v1/programs", service.ProgramRequest{Encoded: encoded}, &info)
	return info, err
}

// UploadAssembly registers a program from text-assembly source (POST
// /v1/programs); name is used when the source has no .name directive.
func (c *Client) UploadAssembly(ctx context.Context, name, src string) (service.ProgramInfo, error) {
	var info service.ProgramInfo
	err := c.do(ctx, http.MethodPost, "/v1/programs", service.ProgramRequest{Assembly: src, Name: name}, &info)
	return info, err
}

// Programs lists the daemon's registered programs in id order (GET
// /v1/programs).
func (c *Client) Programs(ctx context.Context) ([]service.ProgramInfo, error) {
	var out []service.ProgramInfo
	err := c.do(ctx, http.MethodGet, "/v1/programs", nil, &out)
	return out, err
}

// Health fetches GET /v1/healthz. A draining daemon answers 503 with a
// well-formed body (OK false, Draining true); that is a health report, not a
// transport failure, so it is returned without error — callers branch on
// h.OK / h.Draining. Any other non-2xx stays an error.
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	var h service.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusServiceUnavailable {
		buf, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if err != nil {
			return h, err
		}
		if json.Unmarshal(buf, &h) == nil && (h.OK || h.Draining) {
			return h, nil
		}
		if resp.StatusCode/100 == 2 {
			return h, fmt.Errorf("service: bad healthz body: %q", string(buf))
		}
		// A 503 that is not the draining shape (a proxy, an overloaded
		// gateway) is still an error.
		return h, &APIError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(buf))}
	}
	return h, decodeError(resp)
}

// Stats fetches GET /v1/statsz.
func (c *Client) Stats(ctx context.Context) (service.ServerStats, error) {
	var st service.ServerStats
	err := c.do(ctx, http.MethodGet, "/v1/statsz", nil, &st)
	return st, err
}
