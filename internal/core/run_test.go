package core

import (
	"testing"

	"resilientfusion/internal/spectral"
)

func TestWithDefaultsPrefetch(t *testing.T) {
	cases := []struct {
		in, want int
	}{
		{0, 1},   // zero value selects the paper's overlap default
		{-1, -1}, // -1 disables overlap (ablation A2, experiments convention)
		{-7, -1}, // any negative disables
		{1, 1},
		{3, 3},
	}
	for _, c := range cases {
		got := Options{Prefetch: c.in}.withDefaults().Prefetch
		if got != c.want {
			t.Errorf("withDefaults Prefetch=%d: got %d, want %d", c.in, got, c.want)
		}
		// Canonicalization must be idempotent: the manager re-canonicalizes
		// options that StartJob and the service pool already canonicalized,
		// and "overlap disabled" must survive the second pass.
		once := Options{Prefetch: c.in}.withDefaults()
		if twice := once.withDefaults(); twice.Prefetch != once.Prefetch {
			t.Errorf("withDefaults not idempotent for Prefetch=%d: %d -> %d",
				c.in, once.Prefetch, twice.Prefetch)
		}
	}
}

func TestWithDefaultsFill(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Granularity != 2 || o.Components != 3 || o.Replication != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.Threshold != spectral.DefaultThreshold {
		t.Errorf("Threshold default = %g", o.Threshold)
	}
	if o.FailTimeout != 4*o.HeartbeatPeriod {
		t.Errorf("FailTimeout = %g with HeartbeatPeriod %g", o.FailTimeout, o.HeartbeatPeriod)
	}
	// Explicit values survive.
	o = Options{Granularity: 5, Threshold: 0.2, Components: 4}.withDefaults()
	if o.Granularity != 5 || o.Threshold != 0.2 || o.Components != 4 {
		t.Errorf("explicit values clobbered: %+v", o)
	}
}

func TestResultKeyCoversResultFields(t *testing.T) {
	base := Options{Workers: 4, Granularity: 2, Threshold: 0.05, Components: 3}
	if base.ResultKey() != base.ResultKey() {
		t.Fatal("ResultKey not deterministic")
	}
	// Fields that change the output change the key.
	for _, o := range []Options{
		{Workers: 8, Granularity: 2, Threshold: 0.05, Components: 3},
		{Workers: 4, Granularity: 3, Threshold: 0.05, Components: 3},
		{Workers: 4, Granularity: 2, Threshold: 0.06, Components: 3},
		{Workers: 4, Granularity: 2, Threshold: 0.05, Components: 4},
	} {
		if o.ResultKey() == base.ResultKey() {
			t.Errorf("key collision: %+v vs base", o)
		}
	}
	// Scheduling/resiliency knobs do not.
	same := base
	same.Prefetch = -1
	same.Replication = 2
	same.RequestTimeout = 9
	if same.ResultKey() != base.ResultKey() {
		t.Error("scheduling knobs leaked into ResultKey")
	}
	// Canonicalization: explicit defaults and zero values agree.
	zero := Options{Workers: 4}
	expl := Options{Workers: 4, Granularity: 2, Threshold: 0.1, Components: 3}
	if zero.ResultKey() != expl.ResultKey() {
		t.Error("zero-value options key differs from explicit defaults")
	}
}
