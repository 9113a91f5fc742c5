// The registry file: the one place envelopes are constructed. Nothing
// here may produce a diagnostic.
package service

import (
	"encoding/json"
	"net/http"
)

type apiErrorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error apiErrorJSON `json:"error"`
}

func writeAPIErrorCode(w http.ResponseWriter, status int, code, message string) {
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: apiErrorJSON{Code: code, Message: message}})
}
