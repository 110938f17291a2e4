// Wavefront: the paper's Section 5 generalization — "it can be
// generalized to computations that can be represented as directed acyclic
// graphs" — demonstrated on a computation that is not a factorization.
//
// A 2D wavefront (dynamic-programming table, Gauss-Seidel sweep, sequence
// alignment...) has one task per cell (i,j) depending on its west and
// north neighbours. The program schedules the same DAG two ways —
// row-cyclic (the wrap-mapping philosophy) and block tiles (the paper's
// block philosophy) — and compares simulated makespan and the number of
// dependency edges that cross processors (the communication the mapping
// induces).
package main

import (
	"fmt"

	"repro"
)

const (
	side  = 64 // cells per dimension
	procs = 8
	tile  = 16 // block tiling factor (tile x tile cells per block)
)

func main() {
	n := side * side
	id := func(i, j int) int { return i*side + j }

	build := func(proc func(i, j int) int32) []repro.Task {
		tasks := make([]repro.Task, n)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				t := repro.Task{Proc: proc(i, j), Work: 1}
				if i > 0 {
					t.Preds = append(t.Preds, int32(id(i-1, j)))
				}
				if j > 0 {
					t.Preds = append(t.Preds, int32(id(i, j-1)))
				}
				tasks[id(i, j)] = t
			}
		}
		return tasks
	}
	crossEdges := func(tasks []repro.Task) int {
		cross := 0
		for _, t := range tasks {
			for _, p := range t.Preds {
				if tasks[p].Proc != t.Proc {
					cross++
				}
			}
		}
		return cross
	}

	// Row-cyclic assignment: row i on processor i mod P (wrap philosophy).
	cyclic := build(func(i, j int) int32 { return int32(i % procs) })
	// Block tiles: tile-row-major tiles cycled over processors (block
	// philosophy: neighbours share a processor, cuts cross edges).
	tiles := side / tile
	tiled := build(func(i, j int) int32 {
		t := (i/tile)*tiles + j/tile
		return int32(t % procs)
	})

	fmt.Printf("wavefront %dx%d on %d processors (unit work per cell)\n\n", side, side, procs)
	fmt.Printf("%-14s %10s %12s %12s\n", "mapping", "makespan", "efficiency", "cross edges")
	for _, c := range []struct {
		name  string
		tasks []repro.Task
	}{
		{"row-cyclic", cyclic},
		{fmt.Sprintf("%dx%d tiles", tile, tile), tiled},
	} {
		r := repro.Simulate(c.tasks, procs, repro.SimOptions{Dynamic: true})
		fmt.Printf("%-14s %10d %12.3f %12d\n", c.name, r.Makespan, r.Efficiency, crossEdges(c.tasks))
	}
	fmt.Printf("\ncritical path: %d (lower bound for any mapping)\n", repro.CriticalPath(cyclic))
	fmt.Println("\nThe same trade-off as the paper's Tables 2-5: fine cyclic mappings")
	fmt.Println("balance and pipeline well; block tiles slash communication.")
}
