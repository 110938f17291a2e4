package exec

import "fmt"

// checkProc validates one schedule-supplied owner id against the
// processor count. Schedules are caller-constructed data; an out-of-range
// owner must surface as an error, not an index-out-of-range panic.
func checkProc(owner int32, p int) error {
	if owner < 0 || int(owner) >= p {
		return fmt.Errorf("exec: processor %d out of range [0, %d)", owner, p)
	}
	return nil
}

// checkTasks validates a task graph for execution: IDs must equal the
// slice index (topological order), every processor in [0, p), and every
// predecessor a strictly earlier task. The simulators panic on these
// conditions (they only ever see graphs the package itself built); the
// real executors accept caller-supplied graphs and return errors.
func checkTasks(tasks []Task, p int) error {
	for i := range tasks {
		t := &tasks[i]
		if t.ID != i {
			return fmt.Errorf("exec: task %d out of order (ID %d)", i, t.ID)
		}
		if err := checkProc(t.Proc, p); err != nil {
			return fmt.Errorf("exec: task %d: %w", i, err)
		}
		for _, pr := range t.Preds {
			if pr < 0 || int(pr) >= i {
				return fmt.Errorf("exec: task %d depends on non-earlier task %d", i, pr)
			}
		}
	}
	return nil
}
