package traffic

import "repro/internal/sched"

// refElemProc is the per-element derivation the schedule constructors ran
// while a schedule held one owner per factor element: every position of
// column j on ColProc[j], every position q of a unit-block schedule on
// UnitProc[Part.ElemUnit[q]], and a schedule with neither owner vector
// read through its ElemProc. It is the oracle sched.Schedule.AppendOwners
// and elemOwners are pinned to, and the owners the reference walks of this
// package read.
func refElemProc(s *sched.Schedule) []int32 {
	switch {
	case s.ColProc != nil:
		out := make([]int32, s.F.NNZ())
		for j, proc := range s.ColProc {
			for q := s.F.ColPtr[j]; q < s.F.ColPtr[j+1]; q++ {
				out[q] = proc
			}
		}
		return out
	case s.UnitProc != nil:
		out := make([]int32, s.Part.F.NNZ())
		for q := range out {
			out[q] = s.UnitProc[s.Part.ElemUnit[q]]
		}
		return out
	}
	return s.ElemProc
}
