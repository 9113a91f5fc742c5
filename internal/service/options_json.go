package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"unicode"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
)

// lowerOptions validates a decoded options body and lowers it onto
// core.Options (not yet canonicalized — the pool's canonicalOptions
// applies defaults and policy). Absent knobs stay zero, and an
// explicitly sent zero also means "pool default" (core.Options treats
// zero as unset throughout); workers, replication and scheduling policy
// are fixed by the pool and not settable. Range checks beyond
// representability live in canonicalOptions; this layer rejects values
// JSON can carry but no computation can mean.
func lowerOptions(o fusionclient.Options) (core.Options, error) {
	var opts core.Options
	if o.Granularity != nil {
		opts.Granularity = *o.Granularity
	}
	if o.Prefetch != nil {
		opts.Prefetch = *o.Prefetch
	}
	if o.Threshold != nil {
		v := *o.Threshold
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return opts, fmt.Errorf("bad threshold %v", v)
		}
		opts.Threshold = v
	}
	if o.Components != nil {
		opts.Components = *o.Components
	}
	if o.Parallelism != nil {
		opts.Parallelism = *o.Parallelism
	}
	if o.Algorithm != nil {
		opts.Algorithm = *o.Algorithm
	}
	return opts, nil
}

// maxOptionsBytes bounds an options JSON body — a page of numbers, not a
// payload channel.
const maxOptionsBytes = 1 << 20

// decodeOptionsBody reads an options JSON body. An empty body selects
// the pool defaults; unknown fields are rejected (a typo must fail
// loudly, not silently run the defaults).
func decodeOptionsBody(r io.Reader) (core.Options, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxOptionsBytes))
	if err != nil {
		return core.Options{}, fmt.Errorf("bad options JSON: %w", err)
	}
	if key, ok := duplicateKey(body); ok {
		return core.Options{}, fmt.Errorf("option %q given more than once", key)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var o fusionclient.Options
	if err := dec.Decode(&o); err != nil {
		if errors.Is(err, io.EOF) {
			return core.Options{}, nil
		}
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			return core.Options{}, typeMismatch(te)
		}
		return core.Options{}, fmt.Errorf("bad options JSON: %w", err)
	}
	// A second document (or trailing junk) is a malformed request, not
	// ignorable padding.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return core.Options{}, errors.New("bad options JSON: trailing data after options object")
	}
	return lowerOptions(o)
}

// typeMismatch restates encoding/json's type error in the request's own
// terms — the JSON key, the JSON type that arrived and the one expected —
// where the decoder's text names the Go decode target, which changes
// with every rename of the Go types.
func typeMismatch(te *json.UnmarshalTypeError) error {
	got, _, _ := strings.Cut(te.Value, " ") // "number 1.5" → "number"
	if got == "bool" {
		got = "boolean"
	}
	var want string
	switch te.Type.Kind() {
	case reflect.Int:
		want = "an integer"
	case reflect.Float64:
		want = "a number"
	case reflect.String:
		want = "a string"
	default: // the options object itself
		want = "an object"
	}
	if te.Field == "" {
		return fmt.Errorf("bad options JSON: got a JSON %s, want %s", got, want)
	}
	return fmt.Errorf("option %q: got a JSON %s, want %s", te.Field, got, want)
}

// duplicateKey finds a top-level key given twice in a JSON object —
// which encoding/json would resolve silently, last value winning.
// Keys compare the way the decoder matches them to fields, under
// Unicode simple case folding, so "granularity" and "Granularity"
// collide. Malformed input reports no duplicate: the decode that
// follows rejects it with a precise error.
func duplicateKey(body []byte) (string, bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return "", false
		}
		key, _ := tok.(string)
		folded := strings.Map(foldRune, key)
		if seen[folded] {
			return key, true
		}
		seen[folded] = true
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			return "", false
		}
	}
	return "", false
}

// foldRune maps r to the smallest rune of its simple case-folding
// orbit, so two keys fold equal exactly when strings.EqualFold holds.
func foldRune(r rune) rune {
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next
		}
		r = next
	}
}

// jobOptions is the canonical options echo in job status and the
// journal's options record: every knob the job actually ran with,
// defaults filled in, including the pool-fixed worker count.
func jobOptions(o core.Options) *fusionclient.JobOptions {
	return &fusionclient.JobOptions{
		Workers:     o.Workers,
		Granularity: o.Granularity,
		Prefetch:    o.Prefetch,
		Threshold:   o.Threshold,
		Components:  o.Components,
		Parallelism: o.Parallelism,
		Algorithm:   o.Algorithm,
	}
}
