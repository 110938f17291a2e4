package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/sched"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Field order is fixed by the struct, so the emitted JSON is byte-stable
// (the golden test pins it).
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int32  `json:"tid"`
	Args any    `json:"args,omitempty"`
}

// chromeArgs values marshal with sorted keys (encoding/json's map rule),
// keeping the output byte-stable.
type chromeArgs map[string]int64

// threadName is the metadata args payload naming a processor lane.
type threadName struct {
	Name string `json:"name"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports a traced simulation in the Chrome trace-event
// JSON format, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Each of the p processors is one lane (pid 0, tid =
// processor): every task becomes a complete ("X") slice named t<ID> whose
// args carry the work/comm/stall split, with a nested "comm" child slice
// when the task was charged communication time and a "stall" slice filling
// the idle gap before a dependency-bound start. Timestamps are the
// simulation's work units (reported as microseconds, the format's native
// unit) and are emitted in non-decreasing order.
func WriteChromeTrace(w io.Writer, events []exec.TaskEvent, p int) error {
	if err := sched.CheckProcs("obs", p); err != nil {
		return err
	}
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for proc := 0; proc < p; proc++ {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: int32(proc),
			Args: threadName{Name: fmt.Sprintf("P%02d", proc)},
		})
	}
	sorted := append([]exec.TaskEvent(nil), events...)
	sort.SliceStable(sorted, func(a, b int) bool {
		sa, sb := sorted[a].Start-sorted[a].Stall, sorted[b].Start-sorted[b].Stall
		if sa != sb {
			return sa < sb
		}
		if sorted[a].Proc != sorted[b].Proc {
			return sorted[a].Proc < sorted[b].Proc
		}
		return sorted[a].Task < sorted[b].Task
	})
	var slices []chromeEvent
	for _, ev := range sorted {
		if ev.Stall > 0 {
			slices = append(slices, chromeEvent{
				Name: fmt.Sprintf("stall t%d", ev.Cause), Cat: "stall", Ph: "X",
				Ts: ev.Start - ev.Stall, Dur: ev.Stall, Pid: 0, Tid: ev.Proc,
				Args: chromeArgs{"cause": int64(ev.Cause)},
			})
		}
		args := chromeArgs{"work": ev.Work, "comm": ev.Comm, "stall": ev.Stall}
		if ev.Cause >= 0 {
			args["cause"] = int64(ev.Cause)
		}
		slices = append(slices, chromeEvent{
			Name: fmt.Sprintf("t%d", ev.Task), Cat: "task", Ph: "X",
			Ts: ev.Start, Dur: ev.Finish - ev.Start, Pid: 0, Tid: ev.Proc,
			Args: args,
		})
		if ev.Comm > 0 {
			slices = append(slices, chromeEvent{
				Name: "comm", Cat: "comm", Ph: "X",
				Ts: ev.Start, Dur: ev.Comm, Pid: 0, Tid: ev.Proc,
				Args: chromeArgs{"vol": ev.Comm},
			})
		}
	}
	// Global timestamp monotonicity (a Perfetto requirement for clean
	// imports): stable-sort the slices by start time only, preserving the
	// parent-before-child emission order at equal timestamps.
	sort.SliceStable(slices, func(a, b int) bool { return slices[a].Ts < slices[b].Ts })
	trace.TraceEvents = append(trace.TraceEvents, slices...)

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}

// TraceFormats lists the supported trace export formats, the values the
// CLIs' -traceformat flags validate against.
func TraceFormats() []string { return []string{"chrome", "gantt"} }

// WriteTrace exports a traced simulation in the named format: "chrome"
// (WriteChromeTrace) or "gantt" (the ASCII per-processor chart). Unknown
// formats are refused with an error listing the supported set.
func WriteTrace(w io.Writer, format string, events []exec.TaskEvent, res exec.SimResult) error {
	switch format {
	case "chrome":
		return WriteChromeTrace(w, events, res.P)
	case "gantt":
		_, err := io.WriteString(w, Gantt(events, res.P, res.Makespan, 100))
		return err
	default:
		return fmt.Errorf("obs: unknown trace format %q (supported: %s)",
			format, strings.Join(TraceFormats(), ", "))
	}
}
