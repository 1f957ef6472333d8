package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal Go client for a simd daemon. The zero HTTPClient
// means http.DefaultClient.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds the retries (attempts beyond the first) of a
	// request that failed retryably: HTTP 429 backpressure for any method,
	// or a transient network error for idempotent methods. Negative
	// disables retries; 0 means the default 3.
	MaxRetries int
	// RetryBaseDelay is the first backoff step; it doubles per retry (with
	// jitter) up to retryMaxDelay, and a 429's Retry-After header overrides
	// it. 0 means the default 100ms.
	RetryBaseDelay time.Duration
	// Sign, when set, is called with every outgoing request and its body
	// (nil for body-less requests) before the request is sent — the hook by
	// which subsystems stamp authentication headers (the fleet wire's
	// shared-secret HMAC rides on it).
	Sign func(req *http.Request, body []byte)
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) hc() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes an error envelope into a sentinel-wrapping error so
// callers can errors.Is against ErrQueueFull / ErrDraining / ErrNotFound.
func apiError(status int, body []byte) error {
	var eb errorBody
	msg := string(bytes.TrimSpace(body))
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	switch status {
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w (%s)", ErrQueueFull, msg)
	case http.StatusServiceUnavailable:
		// 503 covers both shutdown (draining) and startup (journal replay);
		// the body tells them apart so callers can errors.Is the right one.
		if strings.Contains(msg, "not ready") || strings.Contains(msg, "replaying") {
			return fmt.Errorf("%w (%s)", ErrNotReady, msg)
		}
		return fmt.Errorf("%w (%s)", ErrDraining, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", ErrNotFound, msg)
	default:
		return &HTTPError{Status: status, Msg: msg}
	}
}

// HTTPError is the client-side form of an API error that maps to no
// sentinel: validation failures and unrecognized statuses. Callers (the
// fleet worker's result spool) use the status to tell "the server answered
// and rejected this request" from "the server is unreachable or
// unhealthy".
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Msg)
}

const retryMaxDelay = 5 * time.Second

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 3
	default:
		return c.MaxRetries
	}
}

// retryDelay computes the sleep before retry number attempt (0-based):
// exponential from RetryBaseDelay with full jitter, capped at
// retryMaxDelay; a server-provided Retry-After (seconds) takes precedence.
func (c *Client) retryDelay(attempt int, retryAfter string) time.Duration {
	if s, err := strconv.Atoi(retryAfter); err == nil && s >= 0 {
		return time.Duration(s) * time.Second
	}
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << attempt
	if d > retryMaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = retryMaxDelay
	}
	return time.Duration(rand.Int64N(int64(d)) + 1)
}

// PostIdempotent issues a JSON POST whose transient network errors are
// retried like a GET's — for requests that are idempotent by construction.
// Every fleet RPC qualifies: registration and heartbeats are upserts, polls
// lease at-most-once server-side, and result merges deduplicate by seed, so
// duplicate delivery after a lost response is harmless.
func (c *Client) PostIdempotent(ctx context.Context, path string, in, out any) error {
	return c.doRetry(ctx, http.MethodPost, path, in, out, true)
}

// do issues one API request with retries. HTTP 429 (queue backpressure) is
// retried for every method — the request was read and rejected, so
// resubmitting is safe. Transient network errors are retried only for
// idempotent methods (GET, DELETE): a failed POST may have been applied.
// Backoff sleeps honor ctx.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, in, out, method == http.MethodGet || method == http.MethodDelete)
}

func (c *Client) doRetry(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		err, retryable, retryAfter := c.attempt(ctx, method, path, data, out)
		if err == nil || !retryable || attempt >= c.maxRetries() {
			return err
		}
		if !idempotent && !errors.Is(err, ErrQueueFull) {
			return err
		}
		timer := time.NewTimer(c.retryDelay(attempt, retryAfter))
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// attempt is one request/response cycle of do. retryable marks errors that
// a retry could plausibly cure (429, network failure); retryAfter carries
// the server's Retry-After header, if any.
func (c *Client) attempt(ctx context.Context, method, path string, data []byte, out any) (err error, retryable bool, retryAfter string) {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err, false, ""
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Sign != nil {
		c.Sign(req, data)
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		// Context expiry is terminal; anything else (refused connection,
		// reset, timeout at the transport) is a transient network error.
		if ctx.Err() != nil {
			return ctx.Err(), false, ""
		}
		return err, true, ""
	}
	defer resp.Body.Close()
	respData, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err, false, ""
	}
	if resp.StatusCode >= 400 {
		return apiError(resp.StatusCode, respData),
			resp.StatusCode == http.StatusTooManyRequests,
			resp.Header.Get("Retry-After")
	}
	if out != nil {
		return json.Unmarshal(respData, out), false, ""
	}
	return nil, false, ""
}

// Submit posts a job and returns its pending status. A full queue surfaces
// as an error matching ErrQueueFull; a draining daemon as ErrDraining.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's status and results.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists all stored jobs.
func (c *Client) Jobs(ctx context.Context) ([]*JobStatus, error) {
	var sts []*JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &sts); err != nil {
		return nil, err
	}
	return sts, nil
}

// Cancel requests cancellation and returns the (possibly already terminal)
// status.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Stream consumes a job's NDJSON progress stream, invoking fn for every
// event until the terminal status line, which it returns. fn returning a
// non-nil error aborts the stream with that error. fn may be nil to just
// wait for completion.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) (*JobStatus, error) {
	return c.StreamFrom(ctx, id, 0, fn)
}

// StreamFrom is Stream resuming after a disconnect: events with seq ≤ from
// are suppressed server-side, so passing the last Seq the previous stream
// delivered yields no duplicates. Sequence numbers are journaled with the
// job, so resuming works across a daemon restart — a recovered job continues
// the numbering where the crashed process left it.
func (c *Client) StreamFrom(ctx context.Context, id string, from uint64, fn func(Event) error) (*JobStatus, error) {
	url := c.BaseURL + "/v1/jobs/" + id + "/stream"
	if from > 0 {
		url += "?from=" + strconv.FormatUint(from, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, apiError(resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("service: bad stream line: %w", err)
		}
		if ev.Type == "status" {
			return ev.Job, nil
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("service: stream ended without a terminal status line")
}

// Ready queries /readyz: whether the daemon accepts submissions, plus the
// journal replay summary once recovery has finished (nil before that, and
// on pre-durability daemons). A connection error is returned as-is, so
// callers can poll Ready through a restart.
func (c *Client) Ready(ctx context.Context) (bool, *ReplaySummary, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return false, nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return false, nil, err
	}
	var body readyBody
	_ = json.Unmarshal(data, &body) // tolerate non-JSON bodies from old daemons
	return resp.StatusCode == http.StatusOK, body.Replay, nil
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}
