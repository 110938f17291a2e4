// Package geom reads shape from a second internal package.
package geom

import "unread/internal/shape"

// Total is read by the main package.
func Total(sides []int) int {
	t := 0
	for _, s := range sides {
		t += shape.Measure(shape.New(s))
	}
	return t
}
