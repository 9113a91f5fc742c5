package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
)

// FuzzOptionsJSON drives the v2 options body decoder with arbitrary
// bytes. Properties: the decoder never panics; rejected bodies yield
// zero options; and any body it accepts canonicalizes stably —
// Canonical is idempotent, ResultKey is invariant under
// canonicalization, and re-marshaling the decoded knobs through
// fusionclient.Options reproduces the identical core.Options.
func FuzzOptionsJSON(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"granularity":4}`))
	f.Add([]byte(`{"granularity":3,"prefetch":-1,"threshold":0.08,"components":5,"parallelism":2}`))
	f.Add([]byte(`{"granularity":0,"prefetch":0,"threshold":0,"components":0,"parallelism":0}`))
	f.Add([]byte(`{"threshold":1e999}`))
	f.Add([]byte(`{"threshold":-0.0}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`{"granularity":1} {"granularity":2}`))
	f.Add([]byte(`{"granularity":1}garbage`))
	f.Add([]byte(`{"algorithm":"pyramid"}`))
	f.Add([]byte(`{"algorithm":"PCT"}`))
	f.Add([]byte(`{"algorithm":" dwt "}`))
	f.Add([]byte(`{"algorithm":"bogus"}`))
	f.Add([]byte(`{"algorithm":""}`))
	f.Add([]byte(`{"algorithm":"dwt","threshold":0.05}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		opts, err := decodeOptionsBody(bytes.NewReader(body))
		if err != nil {
			if opts != (core.Options{}) {
				t.Fatalf("decode error %v returned non-zero options %+v", err, opts)
			}
			return
		}

		c := opts.Canonical()
		if c2 := c.Canonical(); c2 != c {
			t.Fatalf("Canonical not idempotent:\nonce:  %+v\ntwice: %+v", c, c2)
		}
		if ck, ok := opts.ResultKey(), c.ResultKey(); ck != ok {
			t.Fatalf("ResultKey changed under canonicalization: %q -> %q", ck, ok)
		}

		oj := fusionclient.Options{
			Granularity: &opts.Granularity,
			Prefetch:    &opts.Prefetch,
			Threshold:   &opts.Threshold,
			Components:  &opts.Components,
			Parallelism: &opts.Parallelism,
			Algorithm:   &opts.Algorithm,
		}
		re, err := json.Marshal(oj)
		if err != nil {
			t.Fatalf("re-marshal of accepted options failed: %v", err)
		}
		opts2, err := decodeOptionsBody(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("decode of re-marshaled options failed: %v\nbody: %s", err, re)
		}
		if opts2 != opts {
			t.Fatalf("options changed across JSON round trip:\nfirst:  %+v\nsecond: %+v\nbody: %s", opts, opts2, re)
		}
	})
}
