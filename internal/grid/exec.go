package grid

import (
	"time"

	"grasp/internal/vsim"
)

// Work is one unit of remote execution: input shipped to the node, cost
// operations computed there, output shipped back. The skeleton layers map
// their task types onto Work.
type Work struct {
	Cost     float64 // operations
	InBytes  float64 // input payload, master → node
	OutBytes float64 // result payload, node → master
}

// Execute performs w on node id, blocking p for transfer-in, compute, and
// transfer-out. It returns the total wall (virtual) time — exactly the
// per-task measurement Algorithm 1 and 2 collect — and ErrNodeFailed when
// the node crashes before the result is back (the output transfer is
// skipped; the work is lost).
func (g *Grid) Execute(p *vsim.Proc, id NodeID, w Work) (time.Duration, error) {
	start := g.env.Now()
	if g.Node(id).FailedAt(g.env.Now()) {
		return 0, ErrNodeFailed
	}
	if w.InBytes > 0 {
		g.SendTo(p, id, w.InBytes)
	}
	if _, err := g.Node(id).Compute(p, w.Cost); err != nil {
		return g.env.Now() - start, err
	}
	if w.OutBytes > 0 {
		g.RecvFrom(p, id, w.OutBytes)
	}
	return g.env.Now() - start, nil
}
