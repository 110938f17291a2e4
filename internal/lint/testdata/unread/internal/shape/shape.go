// Package shape holds one name for each edge of the unread-export rule.
package shape

// Square is reachable from New's result, which geom reads.
type Square struct {
	Side Length
}

// Length is reachable through Square's exported field.
type Length int

// New is read by geom.
func New(side int) *Square { return &Square{Side: Length(side)} }

// Measure is read by geom.
func Measure(s *Square) int { return Area(s) }

// Area is read only inside its package: flagged.
func Area(s *Square) int { return int(s.Side * s.Side) }

// Scale is read only by shape_test.go: flagged.
func (s *Square) Scale(k int) { s.Side *= Length(k) }

// String is exempt: fmt reaches it through fmt.Stringer.
func (s *Square) String() string { return "square" }

// Border is read only by the main package, which counts.
func Border(s *Square) int { return 4 * int(s.Side) }

// Hidden has no reader and a waiver.
func Hidden() {}
