package engine

import (
	"sync/atomic"

	"grasp/internal/platform"
	"grasp/internal/rt"
)

// token is the admission credit the intake pump acquires per task.
type token struct{}

// Intake is the bounded admission-credit window shared by every streaming
// adapter: a pump forwards input tasks only while credits remain, and the
// coordinator returns one credit per finished task. When the window is
// full the pump stops reading the input channel, so producers block once
// its buffer fills — backpressure all the way to the submitter.
type Intake struct {
	credits  rt.Chan
	window   int
	admitted atomic.Int64
}

// NewIntake creates the credit window, pre-filled to window credits.
func NewIntake(runtime rt.Runtime, c rt.Ctx, name string, window int) *Intake {
	in := &Intake{credits: runtime.NewChan(name, window), window: window}
	for i := 0; i < window; i++ {
		in.credits.Send(c, token{})
	}
	return in
}

// InboxCap sizes a coordinator's multiplexed inbox so neither the pump (at
// most window tasks ahead) nor the worker processes (one result per
// admitted task, plus a request and an exit each) stall on the coordinator
// between two receives: inside a skeleton loop the credit window is the
// only bound on in-flight work.
func InboxCap(window, workers int) int { return window*2 + workers*2 + 8 }

// Admitted returns how many tasks the pump has forwarded so far. It is
// exact once the run has drained.
func (in *Intake) Admitted() int { return int(in.admitted.Load()) }

// Pump spawns the admission process: acquire a credit, read the next task
// from src, and hand it to forward. When src closes, eof runs once and the
// pump exits; when the credit channel is closed (a run shutting down with
// dead workers), the pump exits without eof.
func (in *Intake) Pump(c rt.Ctx, name string, src rt.Chan, forward func(rt.Ctx, platform.Task), eof func(rt.Ctx)) {
	c.Go(name, func(cc rt.Ctx) {
		for {
			if _, ok := in.credits.Recv(cc); !ok {
				return
			}
			v, ok := src.Recv(cc)
			if !ok {
				eof(cc)
				return
			}
			in.admitted.Add(1)
			forward(cc, v.(platform.Task))
		}
	})
}

// Release returns one credit after a task finishes. It must not be called
// after Close.
func (in *Intake) Release(c rt.Ctx) { in.credits.Send(c, token{}) }

// Close shuts the credit channel so a pump blocked on a credit exits; used
// when a run abandons its stream (every worker dead).
func (in *Intake) Close(c rt.Ctx) { in.credits.Close(c) }
