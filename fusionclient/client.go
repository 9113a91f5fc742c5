// Package fusionclient is the typed Go SDK for the fusion service's v2
// resource API (internal/service, served by cmd/fusiond), and the one
// declaration of that API's wire schema: the service encodes its
// response bodies from this package's types and error codes, and a
// spec test holds docs/openapi.yaml to them.
//
// It wraps the whole job lifecycle behind typed calls — SubmitCube,
// RegisterScene (streaming multipart), FuseScene, Wait (server-side
// long-poll, no status-poll loops), Jobs, ResultPNG — with service
// failures round-tripped as *APIError carrying the API's stable
// machine-readable codes:
//
//	client := fusionclient.New("http://localhost:8080")
//	job, err := client.SubmitCube(ctx, cube,
//		&fusionclient.Options{Threshold: fusionclient.Float(0.05)})
//	if err != nil { ... }
//	job, err = client.Wait(ctx, job.ID)
//	png, err := client.ResultPNG(ctx, job.ID)
package fusionclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"resilientfusion/internal/hsi"
)

// Client talks to one fusion service. The zero value is not usable;
// construct with New. A Client is safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	longPoll time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (the default is
// http.DefaultClient; do not set a Timeout shorter than the long-poll
// window or Wait will spuriously fail).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithLongPoll sets the per-request long-poll window Wait asks the
// server for (default 30s; the server trims to its own cap and Wait
// simply re-issues, so larger values only reduce request count).
func WithLongPoll(d time.Duration) ClientOption {
	return func(c *Client) { c.longPoll = d }
}

// New builds a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base:     strings.TrimRight(baseURL, "/"),
		hc:       http.DefaultClient,
		longPoll: 30 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues the request and decodes a 2xx JSON body into out (skipped
// when out is nil); non-2xx responses become *APIError.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// SubmitCube submits an in-memory cube for fusion, streaming the HSIC
// encoding as a multipart body alongside the options JSON, and returns
// the accepted job (already terminal on a result-cache hit).
func (c *Client) SubmitCube(ctx context.Context, cube *hsi.Cube, opts *Options) (*Job, error) {
	return c.submit(ctx, opts, func(w io.Writer) error {
		_, err := cube.WriteTo(w)
		return err
	})
}

// SubmitHSIC is SubmitCube for callers holding the HSIC encoding rather
// than a cube value (a .hsic file, bytes from another service): the
// reader streams straight onto the wire. This is the entrypoint that
// needs nothing beyond this package's types.
func (c *Client) SubmitHSIC(ctx context.Context, hsic io.Reader, opts *Options) (*Job, error) {
	return c.submit(ctx, opts, func(w io.Writer) error {
		_, err := io.Copy(w, hsic)
		return err
	})
}

func (c *Client) submit(ctx context.Context, opts *Options, writeCube func(io.Writer) error) (*Job, error) {
	var job Job
	err := c.postMultipart(ctx, "/v2/jobs", &job, func(mw *multipart.Writer) error {
		if opts != nil {
			ow, err := mw.CreateFormField("options")
			if err != nil {
				return err
			}
			if err := json.NewEncoder(ow).Encode(opts); err != nil {
				return err
			}
		}
		cw, err := mw.CreateFormFile("cube", "cube.hsic")
		if err != nil {
			return err
		}
		return writeCube(cw)
	})
	if err != nil {
		return nil, err
	}
	return &job, nil
}

// postMultipart streams a multipart body written by writeParts onto the
// wire through an io.Pipe (nothing buffers in memory) and decodes the
// 2xx JSON response into out.
func (c *Client) postMultipart(ctx context.Context, path string, out any, writeParts func(*multipart.Writer) error) error {
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	// Build the request before spawning the writer: a bad base URL must
	// not strand a goroutine blocked on an unread pipe.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, pr)
	if err != nil {
		pw.Close()
		pr.Close()
		return err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	go func() {
		err := writeParts(mw)
		if err == nil {
			err = mw.Close()
		}
		pw.CloseWithError(err)
	}()
	return c.do(req, out)
}

// Job fetches a job's current resource.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.get(ctx, "/v2/jobs/"+url.PathEscape(id), &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Cancel withdraws a queued job (DELETE /v2/jobs/{id}) and returns the
// canceled resource. Jobs already running or finished come back as an
// *APIError with code "job_not_cancelable".
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/v2/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	var job Job
	if err := c.do(req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// using server-side long-polls (GET /v2/jobs/{id}?wait=...) instead of a
// status-poll loop: each request parks on the server until the job
// finishes or the window elapses, then Wait re-issues. The client-side
// deadline is whatever ctx carries.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	for {
		window := c.longPoll
		if dl, ok := ctx.Deadline(); ok {
			// Ask the server for no more than the time this caller has
			// left, so the final response still reaches them in time.
			if rem := time.Until(dl); rem < window {
				window = rem
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if window <= 0 {
			// The deadline has lapsed even if the context's timer has
			// not fired yet; never return (nil, nil).
			return nil, context.DeadlineExceeded
		}
		var job Job
		start := time.Now()
		err := c.get(ctx, "/v2/jobs/"+url.PathEscape(id)+"?wait="+window.String(), &job)
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			return &job, nil
		}
		// A non-terminal answer far sooner than the window means the
		// server is not honoring long-polls (draining, or a proxy that
		// strips the park) — pace the retry instead of hammering it.
		if elapsed := time.Since(start); elapsed < window/2 && elapsed < time.Second {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Second):
			}
		}
	}
}

// Jobs lists the service's retained jobs, newest first. state "" lists
// every state; limit <= 0 takes the server default.
func (c *Client) Jobs(ctx context.Context, state JobState, limit int) ([]Job, error) {
	q := url.Values{}
	if state != "" {
		q.Set("state", string(state))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v2/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out struct {
		Jobs []Job `json:"jobs"`
	}
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Result fetches a finished job's scalar result summary.
func (c *Client) Result(ctx context.Context, id string) (*ResultSummary, error) {
	var sum ResultSummary
	if err := c.get(ctx, "/v2/jobs/"+url.PathEscape(id)+"/result", &sum); err != nil {
		return nil, err
	}
	return &sum, nil
}

// ResultPNG fetches a finished job's composite image as PNG bytes via
// the result endpoint's content negotiation.
func (c *Client) ResultPNG(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v2/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "image/png")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		return nil, fmt.Errorf("fusionclient: result content type %q, want image/png", ct)
	}
	return io.ReadAll(resp.Body)
}

// RegisterScene uploads an ENVI scene — header text plus the raw
// payload read from data — through the streaming multipart endpoint. The
// payload is piped straight onto the wire (and spooled to disk server
// side), so scenes larger than memory upload fine.
func (c *Client) RegisterScene(ctx context.Context, headerText string, data io.Reader) (*SceneInfo, error) {
	var info SceneInfo
	err := c.postMultipart(ctx, "/v2/scenes", &info, func(mw *multipart.Writer) error {
		hw, err := mw.CreateFormField("header")
		if err != nil {
			return err
		}
		if _, err := io.WriteString(hw, headerText); err != nil {
			return err
		}
		dw, err := mw.CreateFormFile("data", "scene.raw")
		if err != nil {
			return err
		}
		_, err = io.Copy(dw, data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// Scenes lists registered scenes in registration order.
func (c *Client) Scenes(ctx context.Context) ([]SceneInfo, error) {
	var out struct {
		Scenes []SceneInfo `json:"scenes"`
	}
	if err := c.get(ctx, "/v2/scenes", &out); err != nil {
		return nil, err
	}
	return out.Scenes, nil
}

// Scene fetches one registered scene's snapshot.
func (c *Client) Scene(ctx context.Context, id string) (*SceneInfo, error) {
	var info SceneInfo
	if err := c.get(ctx, "/v2/scenes/"+url.PathEscape(id), &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// RemoveScene unregisters a scene and deletes its server-side spool.
// Already-accepted fusions of it still complete.
func (c *Client) RemoveScene(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/v2/scenes/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// FuseScene enqueues a whole-scene fusion of a registered scene and
// returns the accepted job (terminal immediately on a cache hit). The
// job streams the scene tile-by-tile server-side and reports per-tile
// progress in Job.Progress.
func (c *Client) FuseScene(ctx context.Context, id string, opts *Options) (*Job, error) {
	var body bytes.Buffer
	if opts != nil {
		if err := json.NewEncoder(&body).Encode(opts); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v2/scenes/"+url.PathEscape(id)+"/fuse", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var job Job
	if err := c.do(req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Trace fetches a job's recorded stage-span timeline (ingest, screen,
// covariance, eigen, transform, merge, plus detection/regeneration
// events in cluster mode). A job that has not started yet, or was
// served entirely from the result cache, reports an empty span list.
func (c *Client) Trace(ctx context.Context, id string) (*JobTrace, error) {
	var tr JobTrace
	if err := c.get(ctx, "/v2/jobs/"+url.PathEscape(id)+"/trace", &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Stats fetches the pool's counter snapshot.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.get(ctx, "/v2/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}
