package partition

import (
	"reflect"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Min() != -1 {
		t.Fatalf("zero set not empty: len=%d min=%d", s.Len(), s.Min())
	}
	for _, id := range []int{7, 0, 63, 64, 255, 7} {
		s.Add(id)
	}
	if s.Empty() || s.Len() != 5 {
		t.Fatalf("len = %d, want 5", s.Len())
	}
	for _, id := range []int{0, 7, 63, 64, 255} {
		if !s.Has(id) {
			t.Fatalf("missing %d", id)
		}
	}
	for _, id := range []int{1, 62, 65, 254, 256, -1} {
		if s.Has(id) {
			t.Fatalf("spurious member %d", id)
		}
	}
	if got := s.Min(); got != 0 {
		t.Fatalf("Min = %d, want 0", got)
	}
	if got := s.Slice(); !reflect.DeepEqual(got, []int{0, 7, 63, 64, 255}) {
		t.Fatalf("Slice = %v", got)
	}
	if got := s.String(); got != "{0, 7, 63, 64, 255}" {
		t.Fatalf("String = %q", got)
	}
}

func TestSetSpill(t *testing.T) {
	var s Set
	s.Add(1000)
	s.Add(300)
	if s.Len() != 2 || !s.Has(300) || !s.Has(1000) || s.Has(999) {
		t.Fatalf("spill membership wrong: %s", s.String())
	}
	if got := s.Min(); got != 300 {
		t.Fatalf("Min = %d, want 300", got)
	}
	var order []int
	s.ForEach(func(id int) { order = append(order, id) })
	if !reflect.DeepEqual(order, []int{300, 1000}) {
		t.Fatalf("ForEach order = %v", order)
	}
}

func TestSetMinEmptyAndAppendTo(t *testing.T) {
	var s Set
	if s.Min() != -1 {
		t.Fatal("empty Min != -1")
	}
	if s.Slice() != nil {
		t.Fatal("empty Slice != nil")
	}
	s.Add(2)
	buf := make([]int, 0, 4)
	buf = s.AppendTo(buf)
	buf = s.AppendTo(buf)
	if !reflect.DeepEqual(buf, []int{2, 2}) {
		t.Fatalf("AppendTo = %v", buf)
	}
}

func TestSetAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var s Set
	s.Add(-1)
}
