package service

import (
	"errors"
	"net/http"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
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

// errorCode maps a service error to its stable v2 code (one of
// fusionclient's Code* constants) and HTTP status. Unrecognized errors
// are internal: handlers that know better (request parse failures, for
// instance) pass an explicit code instead.
func errorCode(err error) (string, int) {
	switch {
	case errors.Is(err, core.ErrBadOptions):
		return fusionclient.CodeBadOption, http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return fusionclient.CodeQueueFull, http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		return fusionclient.CodePoolClosed, http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return fusionclient.CodeUnknownJob, http.StatusNotFound
	case errors.Is(err, ErrJobNotCancelable):
		return fusionclient.CodeJobNotCancelable, http.StatusConflict
	case errors.Is(err, ErrUnknownScene):
		return fusionclient.CodeUnknownScene, http.StatusNotFound
	case errors.Is(err, ErrSceneLimit):
		return fusionclient.CodeSceneLimit, http.StatusServiceUnavailable
	case errors.Is(err, ErrSceneTooLarge), errors.Is(err, hsi.ErrCubeTooLarge):
		return fusionclient.CodePayloadTooLarge, http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrScenePayload):
		return fusionclient.CodeBadPayload, http.StatusBadRequest
	case errors.Is(err, ErrImageExpired):
		return fusionclient.CodeImageExpired, http.StatusGone
	}
	return fusionclient.CodeInternal, http.StatusInternalServerError
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
	if code == fusionclient.CodeQueueFull {
		w.Header().Set("Retry-After", queueFullRetryAfter)
	}
	writeJSON(w, status, errorEnvelope{Error: apiErrorJSON{Code: code, Message: message}})
}
