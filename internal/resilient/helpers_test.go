package resilient

// Helpers only this package's tests use.

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// DefaultConfig returns the evaluation configuration of §4 with
// regeneration enabled. The replication level (two in the paper) is
// the number of placements callers pass to Add.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		HeartbeatPeriod: 0.25,
		FailTimeout:     1.0,
		Regenerate:      true,
	}
}
