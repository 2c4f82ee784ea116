//go:build !linux

package cluster

import "time"

// sleeper waits on the runtime's timer where no timerfd exists: the wake
// lands on the runtime's timer grid, up to a millisecond or so late, never
// early. A closed stop cuts the current and every later sleep short; a nil
// stop never does. The zero value sleeps with no stop.
type sleeper struct {
	stop <-chan struct{}
}

// sleep waits d, reporting false when stop closed first.
func (s *sleeper) sleep(d time.Duration) bool { return sleepOrStop(d, s.stop) }

// close is a no-op: a runtime timer holds nothing.
func (s *sleeper) close() {}
