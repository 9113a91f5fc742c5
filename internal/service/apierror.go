package service

import (
	"errors"
	"net/http"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
)

// Stable machine-readable error codes of the v2 API. They are part of
// the wire contract: clients branch on them (fusionclient mirrors this
// list), so codes may be added but never renamed.
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

// apiErrorJSON is the body of the v2 structured error envelope:
//
//	{"error": {"code": "queue_full", "message": "..."}}
type apiErrorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error apiErrorJSON `json:"error"`
}

// errorCode maps a service error to its stable v2 code and HTTP status.
// Unrecognized errors are internal: handlers that know better (request
// parse failures, for instance) pass an explicit code instead.
func errorCode(err error) (string, int) {
	switch {
	case errors.Is(err, core.ErrBadOptions):
		return CodeBadOption, http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull, http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		return CodePoolClosed, http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return CodeUnknownJob, http.StatusNotFound
	case errors.Is(err, ErrJobNotCancelable):
		return CodeJobNotCancelable, http.StatusConflict
	case errors.Is(err, ErrUnknownScene):
		return CodeUnknownScene, http.StatusNotFound
	case errors.Is(err, ErrSceneLimit):
		return CodeSceneLimit, http.StatusServiceUnavailable
	case errors.Is(err, ErrSceneTooLarge), errors.Is(err, hsi.ErrCubeTooLarge):
		return CodePayloadTooLarge, http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrScenePayload):
		return CodeBadPayload, http.StatusBadRequest
	case errors.Is(err, ErrImageExpired):
		return CodeImageExpired, http.StatusGone
	}
	return CodeInternal, http.StatusInternalServerError
}

// writeAPIError maps err through errorCode and writes the envelope.
func writeAPIError(w http.ResponseWriter, err error) {
	code, status := errorCode(err)
	writeAPIErrorCode(w, status, code, err.Error())
}

// queueFullRetryAfter is the Retry-After hint (in seconds) sent with
// queue_full rejections. Admission pressure drains at job-completion
// speed, so a short fixed backoff beats clients hot-looping resubmits;
// fusionclient surfaces the hint as APIError.RetryAfter.
const queueFullRetryAfter = "1"

// writeAPIErrorCode writes the envelope with an explicit status and code.
func writeAPIErrorCode(w http.ResponseWriter, status int, code, message string) {
	if code == CodeQueueFull {
		w.Header().Set("Retry-After", queueFullRetryAfter)
	}
	writeJSON(w, status, errorEnvelope{Error: apiErrorJSON{Code: code, Message: message}})
}
