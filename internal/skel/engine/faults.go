package engine

// Faults is the engine's failure/retire bookkeeping: executions lost to
// worker crashes are counted and the crashed workers retired so no future
// dispatch decision selects them. It is plain data — adapters whose
// failure paths run in concurrent processes (compose pools) guard it with
// their own report mutex.
type Faults struct {
	// Failures counts executions lost to worker crashes.
	Failures int
	// Dead lists retired workers in detection order.
	Dead []int
	dead map[int]bool
}

// Retire marks worker w dead, reporting whether this was the first
// detection (callers log and re-queue only once per worker).
func (f *Faults) Retire(w int) bool {
	if f.dead == nil {
		f.dead = make(map[int]bool)
	}
	if f.dead[w] {
		return false
	}
	f.dead[w] = true
	f.Dead = append(f.Dead, w)
	return true
}

// Alive reports whether worker w has not been retired.
func (f *Faults) Alive(w int) bool { return !f.dead[w] }
