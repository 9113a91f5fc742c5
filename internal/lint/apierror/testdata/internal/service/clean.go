package service

import (
	"net/http"

	"fusionlint.test/api/fusionclient"
)

// The sanctioned form: fusionclient's registered constants through the
// registry file's helper. No diagnostics.
func goodHandler(w http.ResponseWriter, err error) {
	writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption, err.Error())
	code := fusionclient.CodeInternal // dynamic code values are the helper's business
	writeAPIErrorCode(w, http.StatusInternalServerError, code, "later")
}
