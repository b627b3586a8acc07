package core

import "fmt"

// Config validation. Validate is the single authority on whether a
// Config is runnable; SelfJoin, RSJoin, and the per-stage entry points
// all call it (via fillDefaults) before touching the DFS, so a
// misconfiguration fails fast at the facade with a typed error instead
// of deep inside a stage.

// ConfigError reports one invalid Config field. It is returned by
// Validate (and thus by every pipeline entry point) so callers can
// dispatch on the offending field with errors.As.
type ConfigError struct {
	// Field names the Config field at fault ("Threshold", "Kernel", ...).
	Field string
	// Reason is the human-readable explanation.
	Reason string
}

func (e *ConfigError) Error() string { return "core: " + e.Reason }

// Validate checks the Config for contradictions and out-of-range values
// without mutating it. Zero values that fillDefaults would replace
// (Threshold 0, NumReducers 0, ...) are accepted. It returns nil or a
// *ConfigError.
func (c *Config) Validate() error {
	if c.FS == nil {
		return &ConfigError{Field: "FS", Reason: "Config.FS is required"}
	}
	if c.FS.Replication() < 1 {
		return &ConfigError{Field: "FS", Reason: "Config.FS replication must be at least 1"}
	}
	if c.Work == "" {
		return &ConfigError{Field: "Work", Reason: "Config.Work is required"}
	}
	if c.Threshold != 0 && (c.Threshold <= 0 || c.Threshold > 1) {
		return &ConfigError{Field: "Threshold",
			Reason: fmt.Sprintf("threshold %v out of (0, 1]", c.Threshold)}
	}
	if c.TokenOrder != BTO && c.TokenOrder != OPTO {
		return &ConfigError{Field: "TokenOrder",
			Reason: fmt.Sprintf("unknown TokenOrder %d", int(c.TokenOrder))}
	}
	if c.Kernel != BK && c.Kernel != PK && c.Kernel != FVT {
		return &ConfigError{Field: "Kernel",
			Reason: fmt.Sprintf("unknown Kernel %d", int(c.Kernel))}
	}
	if c.RecordJoin != BRJ && c.RecordJoin != OPRJ {
		return &ConfigError{Field: "RecordJoin",
			Reason: fmt.Sprintf("unknown RecordJoin %d", int(c.RecordJoin))}
	}
	if c.Routing != IndividualTokens && c.Routing != GroupedTokens {
		return &ConfigError{Field: "Routing",
			Reason: fmt.Sprintf("unknown Routing %d", int(c.Routing))}
	}
	if c.NumGroups < 0 {
		return &ConfigError{Field: "NumGroups",
			Reason: fmt.Sprintf("NumGroups %d must not be negative", c.NumGroups)}
	}
	switch c.BlockMode {
	case NoBlocks, MapBlocks, ReduceBlocks:
	default:
		return &ConfigError{Field: "BlockMode",
			Reason: fmt.Sprintf("unknown BlockMode %d", int(c.BlockMode))}
	}
	if c.BlockMode != NoBlocks {
		if c.Kernel != BK {
			return &ConfigError{Field: "BlockMode",
				Reason: "block processing applies to the BK kernel only"}
		}
		if c.NumBlocks < 2 {
			return &ConfigError{Field: "NumBlocks",
				Reason: "NumBlocks must be at least 2 with block processing"}
		}
		if c.LengthRouting {
			return &ConfigError{Field: "LengthRouting",
				Reason: "LengthRouting and BlockMode are alternative §5 strategies; enable one"}
		}
	}
	if c.LengthRouting && c.Kernel != BK {
		return &ConfigError{Field: "LengthRouting",
			Reason: "LengthRouting applies to the BK kernel only"}
	}
	return nil
}
