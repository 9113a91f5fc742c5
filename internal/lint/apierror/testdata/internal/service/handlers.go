package service

import (
	"net/http"

	"fusionlint.test/api/fusionclient"
)

const localCode = "not_registered"

func badHandlers(w http.ResponseWriter) {
	http.Error(w, "boom", http.StatusInternalServerError)                                 // want "bypasses the structured error envelope"
	writeAPIErrorCode(w, http.StatusBadRequest, "bad_opton", "typo")                      // want "not declared in fusionclient's code registry"
	writeAPIErrorCode(w, http.StatusBadRequest, "bad_option", "restated")                 // want "use the fusionclient.CodeBadOption constant"
	writeAPIErrorCode(w, http.StatusBadRequest, localCode, "via const")                   // want "not declared in fusionclient's code registry"
	_ = errorEnvelope{Error: apiErrorJSON{Code: fusionclient.CodeInternal, Message: "x"}} // want "hand-rolled error envelope"
}
