package fusionclient

import (
	"testing"
	"time"
)

// TestParseRetryAfter pins the Retry-After reader: only non-negative
// delay-seconds yield a backoff; anything else is no hint.
func TestParseRetryAfter(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"": 0, "junk": 0, "-3": 0, "0": 0, " 2 ": 2 * time.Second,
	} {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}
