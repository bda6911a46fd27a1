package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// HTTPClient talks to one spantreed endpoint. It is the transport leg every
// higher client composes: FailoverClient holds one HTTPClient per replica.
type HTTPClient struct {
	base  string
	httpc *http.Client
	token string
}

// Option configures an HTTPClient.
type Option func(*HTTPClient)

// WithAuthToken sends "Authorization: Bearer <token>" on every request.
func WithAuthToken(token string) Option {
	return func(c *HTTPClient) { c.token = token }
}

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default client has no overall timeout —
// streams are long-lived — and relies on per-request contexts.
func WithHTTPClient(h *http.Client) Option {
	return func(c *HTTPClient) { c.httpc = h }
}

// NewHTTP returns a client for the endpoint (e.g. "http://127.0.0.1:8080";
// a missing scheme defaults to http).
func NewHTTP(endpoint string, opts ...Option) *HTTPClient {
	if endpoint != "" && !strings.Contains(endpoint, "://") {
		endpoint = "http://" + endpoint
	}
	c := &HTTPClient{
		base:  strings.TrimSuffix(endpoint, "/"),
		httpc: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Endpoint returns the endpoint this client targets.
func (c *HTTPClient) Endpoint() string { return c.base }

// newRequest builds an authorized JSON request; in == nil means no body.
func (c *HTTPClient) newRequest(ctx context.Context, method, path string, in any) (*http.Request, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// do runs one JSON round trip, decoding a 2xx body into out (out may be nil)
// and any other status into an *APIError.
func (c *HTTPClient) do(ctx context.Context, method, path string, in, out any) error {
	if err := faultinject.Hook(faultinject.PointClientDo); err != nil {
		return err
	}
	req, err := c.newRequest(ctx, method, path, in)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// decodeAPIError folds a non-2xx response into an *APIError, harvesting the
// backoff hint from the Retry-After header or the 429 body's
// retry_after_seconds (the body wins when both are present and larger — it
// is the fresher estimate).
func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var parsed struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &parsed); err == nil && parsed.Error != "" {
		apiErr.Message = parsed.Error
		if d := time.Duration(parsed.RetryAfterSeconds) * time.Second; d > apiErr.RetryAfter {
			apiErr.RetryAfter = d
		}
	} else {
		apiErr.Message = strings.TrimSpace(string(body))
	}
	return apiErr
}

// Register admits a graph.
func (c *HTTPClient) Register(ctx context.Context, req RegisterRequest) (GraphInfo, error) {
	var info GraphInfo
	err := c.do(ctx, http.MethodPost, "/v1/graphs", req, &info)
	return info, err
}

// Deregister removes the graph under key.
func (c *HTTPClient) Deregister(ctx context.Context, key string) error {
	return c.do(ctx, http.MethodDelete, "/v1/graphs/"+key, nil, nil)
}

// Graphs lists registered graphs.
func (c *HTTPClient) Graphs(ctx context.Context) ([]GraphInfo, error) {
	var out struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/graphs", nil, &out)
	return out.Graphs, err
}

// Info describes the graph under key.
func (c *HTTPClient) Info(ctx context.Context, key string) (GraphInfo, error) {
	var info GraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/graphs/"+key, nil, &info)
	return info, err
}

// Sample draws a batch via POST /v1/sample.
func (c *HTTPClient) Sample(ctx context.Context, req SampleRequest) (*SampleResult, error) {
	var res SampleResult
	if err := c.do(ctx, http.MethodPost, "/v1/sample", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Audit draws a batch via POST /v1/audit, returning the raw response body —
// the router proxies it without re-encoding so the server's bytes (summary
// float formatting included) survive verbatim.
func (c *HTTPClient) Audit(ctx context.Context, req SampleRequest) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodPost, "/v1/audit", req, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// GetRaw performs a GET returning the raw JSON body — the generic proxy leg
// for read-only endpoints like /v1/traces.
func (c *HTTPClient) GetRaw(ctx context.Context, path string) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, path, nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Ready reports whether the endpoint answers /readyz with 200 — the probe
// the router's health tracker and the failover client's recovery use. Any
// transport error or non-200 is returned as the not-ready reason.
func (c *HTTPClient) Ready(ctx context.Context) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s not ready (status %d)", c.base, resp.StatusCode)
	}
	return nil
}

// errTruncated marks a stream whose transport died before the terminal
// done/error line — the signature of a killed replica, and the condition the
// FailoverClient treats as "resume on the next replica".
var errTruncated = fmt.Errorf("client: stream truncated before terminal line")

// Stream opens an NDJSON stream on key. A non-200 response fails
// synchronously; after that, results flow on Stream.Results until the
// server's terminal line (success), a mid-flight error line, or a transport
// failure (Err reports errTruncated-wrapped details).
func (c *HTTPClient) Stream(ctx context.Context, key string, sreq StreamRequest) (*Stream, error) {
	if err := faultinject.Hook(faultinject.PointClientDo); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/graphs/"+key+"/stream", sreq)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := decodeAPIError(resp)
		resp.Body.Close()
		cancel()
		return nil, err
	}
	st := newStream(16, cancel)
	go func() {
		defer close(st.results)
		defer resp.Body.Close()
		defer cancel()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var ln Line
			if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
				st.setErr(fmt.Errorf("%w: undecodable line: %v", errTruncated, err))
				return
			}
			if ln.Index != nil {
				select {
				case st.results <- Result{
					Index:      *ln.Index,
					Tree:       ln.Tree,
					Rounds:     ln.Rounds,
					Supersteps: ln.Supersteps,
					TotalWords: ln.TotalWords,
					WalkSteps:  ln.WalkSteps,
				}:
				case <-ctx.Done():
					st.setErr(context.Cause(ctx))
					return
				}
				continue
			}
			// Terminal line: done or server-side error.
			if ln.Error != "" {
				st.setErr(fmt.Errorf("client: stream failed: %s", ln.Error))
			}
			return
		}
		// EOF (or read error) without a terminal line: the replica died.
		if err := sc.Err(); err != nil {
			st.setErr(fmt.Errorf("%w: %v", errTruncated, err))
		} else if ctx.Err() != nil {
			st.setErr(context.Cause(ctx))
		} else {
			st.setErr(errTruncated)
		}
	}()
	return st, nil
}
