// Command app is the fixture's main package, a reader like any other.
package main

import (
	"unread/internal/geom"
	"unread/internal/shape"
)

func main() {
	println(geom.Total([]int{1, 2}), shape.Border(shape.New(3)))
}
