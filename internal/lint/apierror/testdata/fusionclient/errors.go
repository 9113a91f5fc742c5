// Package fusionclient stands in for the SDK: its Code* constants are
// the error-code registry the analyzer resolves codes against.
package fusionclient

const (
	CodeBadOption = "bad_option"
	CodeInternal  = "internal"
)
