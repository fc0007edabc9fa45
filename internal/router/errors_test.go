package router

import (
	"errors"
	"fmt"
	"testing"
)

// The error taxonomy: callers recognise partition-down (data unreachable,
// fail over) with errors.Is, even under wrapping.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		down bool
	}{
		{"nil", nil, false},
		{"partition-down", ErrPartitionDown, true},
		{"double-wrapped down",
			fmt.Errorf("attempt 3: %w", fmt.Errorf("class q1: %w", ErrPartitionDown)), true},
		{"unrelated", errors.New("disk on fire"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := errors.Is(tc.err, ErrPartitionDown); got != tc.down {
				t.Fatalf("Is(ErrPartitionDown) = %v, want %v", got, tc.down)
			}
		})
	}
}
