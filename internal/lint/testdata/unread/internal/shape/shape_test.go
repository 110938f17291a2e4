package shape

import "testing"

func TestScale(t *testing.T) {
	s := New(2)
	s.Scale(3)
	if s.Side != 6 {
		t.Fatal(s.Side)
	}
}
