package router

import (
	"errors"
	"fmt"
	"testing"
)

// The error taxonomy: overload (shed, transient, retry with backoff) and
// partition-down (data unreachable, fail over). Callers tell them apart
// with errors.Is; the two sentinels must stay distinct even under
// wrapping.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		overload bool
		down     bool
	}{
		{"nil", nil, false, false},
		{"overload", ErrOverload, true, false},
		{"partition-down", ErrPartitionDown, false, true},
		{"wrapped overload", fmt.Errorf("serve: admission: %w", ErrOverload), true, false},
		{"double-wrapped down",
			fmt.Errorf("attempt 3: %w", fmt.Errorf("class q1: %w", ErrPartitionDown)), false, true},
		{"unrelated", errors.New("disk on fire"), false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := errors.Is(tc.err, ErrOverload); got != tc.overload {
				t.Fatalf("Is(ErrOverload) = %v, want %v", got, tc.overload)
			}
			if got := errors.Is(tc.err, ErrPartitionDown); got != tc.down {
				t.Fatalf("Is(ErrPartitionDown) = %v, want %v", got, tc.down)
			}
		})
	}
}
