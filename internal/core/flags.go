package core

import "fmt"

// A FlagCheck validates one parsed CLI flag value; nil means the value is
// acceptable. The CLIs share these instead of hand-rolling per-main guards
// so the same flag gets the same rule and the same message everywhere
// (mmstation used to reject -budget -1 while mmmetro accepted -shards -1).
type FlagCheck func() error

// CheckFlags runs the checks in order and returns the first failure,
// prefixed with the program name — ready to print to stderr before
// exiting 1.
func CheckFlags(prog string, checks ...FlagCheck) error {
	for _, c := range checks {
		if err := c(); err != nil {
			return fmt.Errorf("%s: %w", prog, err)
		}
	}
	return nil
}

// IntAtLeast requires -name ≥ min.
func IntAtLeast(name string, v, min int) FlagCheck {
	return func() error {
		if v < min {
			return fmt.Errorf("-%s must be ≥ %d (got %d)", name, min, v)
		}
		return nil
	}
}

// FloatPositive requires -name > 0.
func FloatPositive(name string, v float64) FlagCheck {
	return func() error {
		if !(v > 0) {
			return fmt.Errorf("-%s must be > 0 (got %g)", name, v)
		}
		return nil
	}
}

// FloatAtLeast requires -name ≥ min.
func FloatAtLeast(name string, v, min float64) FlagCheck {
	return func() error {
		if !(v >= min) {
			return fmt.Errorf("-%s must be ≥ %g (got %g)", name, min, v)
		}
		return nil
	}
}

// FlagRequires rejects -name when it was supplied without its prerequisite
// -dep (e.g. benchjson's -strict is meaningless without -compare). set and
// depSet report whether each flag carries a non-default value.
func FlagRequires(name string, set bool, dep string, depSet bool) FlagCheck {
	return func() error {
		if set && !depSet {
			return fmt.Errorf("-%s requires -%s", name, dep)
		}
		return nil
	}
}

// FloatInRange requires lo ≤ -name ≤ hi.
func FloatInRange(name string, v, lo, hi float64) FlagCheck {
	return func() error {
		if !(v >= lo && v <= hi) {
			return fmt.Errorf("-%s must be in [%g, %g] (got %g)", name, lo, hi, v)
		}
		return nil
	}
}
