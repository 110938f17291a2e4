package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/sched"
)

// Gantt renders a traced simulation as an ASCII per-processor timeline,
// one row per processor and width cells spanning [0, makespan):
//
//	'#'  compute
//	'~'  communication
//	'%'  dependency stall (idle, waiting on a predecessor)
//	'.'  idle (no assigned ready work)
//
// Each nonzero segment paints at least one cell, so short tasks remain
// visible at the cost of exact proportionality; later segments overwrite
// earlier ones within a cell, making the busy share the visible one.
func Gantt(events []exec.TaskEvent, p int, makespan int64, width int) string {
	if err := sched.CheckProcs("gantt", p); err != nil {
		return err.Error() + "\n"
	}
	if width <= 0 {
		width = 80
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "gantt: P=%d makespan=%d (%d cells, #=compute ~=comm %%=stall .=idle)\n",
		p, makespan, width)
	if makespan <= 0 {
		for proc := 0; proc < p; proc++ {
			fmt.Fprintf(&sb, "P%02d |%s|\n", proc, strings.Repeat(".", width))
		}
		return sb.String()
	}
	perProc := make([][]exec.TaskEvent, p)
	for _, ev := range events {
		if ev.Proc >= 0 && int(ev.Proc) < p {
			perProc[ev.Proc] = append(perProc[ev.Proc], ev)
		}
	}
	// cell maps a time interval [a, b) to cell indices [c0, c1); a nonzero
	// interval always covers at least one cell.
	cell := func(a, b int64) (int, int) {
		c0 := int(a * int64(width) / makespan)
		c1 := int(b * int64(width) / makespan)
		if c1 > width {
			c1 = width
		}
		if b > a && c1 <= c0 {
			c1 = c0 + 1
			if c1 > width {
				c0, c1 = width-1, width
			}
		}
		return c0, c1
	}
	for proc := 0; proc < p; proc++ {
		row := []byte(strings.Repeat(".", width))
		paint := func(a, b int64, ch byte) {
			c0, c1 := cell(a, b)
			for c := c0; c < c1; c++ {
				row[c] = ch
			}
		}
		evs := perProc[proc]
		sort.Slice(evs, func(a, b int) bool { return evs[a].Start < evs[b].Start })
		for _, ev := range evs {
			if ev.Stall > 0 && ev.Cause >= 0 {
				paint(ev.Start-ev.Stall, ev.Start, '%')
			}
			paint(ev.Start, ev.Start+ev.Work, '#')
			if ev.Comm > 0 {
				paint(ev.Start+ev.Work, ev.Finish, '~')
			}
		}
		fmt.Fprintf(&sb, "P%02d |%s|\n", proc, row)
	}
	return sb.String()
}
