package fusionclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Stable machine-readable error codes of the v2 API. This is the one
// declaration of the list: internal/service writes these constants into
// its error envelopes, so codes may be added but never renamed. Branch
// on them via ErrorCode or errors.As:
//
//	var apiErr *fusionclient.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == fusionclient.CodeQueueFull {
//		// back off and resubmit
//	}
const (
	// CodeBadOption: an option failed validation (unknown key, bad
	// value, out-of-range threshold, oversized decomposition).
	CodeBadOption = "bad_option"
	// CodeBadPayload: the request body is malformed (bad multipart
	// framing, undecodable cube, scene payload/header mismatch).
	CodeBadPayload = "bad_payload"
	// CodePayloadTooLarge: the upload exceeds the pool's size limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeQueueFull: admission control rejected the job; back off and
	// resubmit.
	CodeQueueFull = "queue_full"
	// CodePoolClosed: the pool is shutting down.
	CodePoolClosed = "pool_closed"
	// CodeUnknownJob: no such (or already evicted) job ID.
	CodeUnknownJob = "unknown_job"
	// CodeUnknownScene: no such (or removed) scene ID.
	CodeUnknownScene = "unknown_scene"
	// CodeSceneLimit: the scene registry is at capacity.
	CodeSceneLimit = "scene_limit"
	// CodeImageExpired: the composite aged out of the retention window
	// (scalar results remain queryable).
	CodeImageExpired = "image_expired"
	// CodeJobNotCancelable: DELETE /v2/jobs/{id} on a job that already
	// left the queue (running or terminal).
	CodeJobNotCancelable = "job_not_cancelable"
	// CodeJobNotFinished: a result was requested for a job that has not
	// reached a terminal state.
	CodeJobNotFinished = "job_not_finished"
	// CodeJobFailed: a result was requested for a failed job.
	CodeJobFailed = "job_failed"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// APIError is a structured service error, round-tripped from the v2
// envelope {"error": {"code", "message"}}.
type APIError struct {
	// Code is one of the stable Code* values (empty when the server
	// response carried no envelope — a proxy error page, for instance).
	Code string
	// Message is the human-readable failure description.
	Message string
	// HTTPStatus is the response status the envelope arrived with.
	HTTPStatus int
	// RetryAfter is the server's backoff hint, parsed from the
	// Retry-After header (zero when absent). The service sends it with
	// queue_full rejections.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("fusion service: HTTP %d: %s", e.HTTPStatus, e.Message)
	}
	return fmt.Sprintf("fusion service: %s (%s)", e.Message, e.Code)
}

// ErrorCode extracts the stable code from an error chain, or "" when the
// error is not a structured service error.
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// decodeError turns a non-2xx response into an *APIError, preferring the
// v2 envelope and degrading gracefully for bodies that are not one.
func decodeError(resp *http.Response) error {
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{Code: env.Error.Code, Message: env.Error.Message,
			HTTPStatus: resp.StatusCode, RetryAfter: retryAfter}
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	return &APIError{Message: msg, HTTPStatus: resp.StatusCode, RetryAfter: retryAfter}
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form the service emits); malformed or absent values yield zero.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
