package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("ops").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != 8000 {
		t.Errorf("ops = %d, want 8000", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("value = %d, want 5", c.Value())
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(4)
	g.Add(-6)
	if g.Value() != 1 {
		t.Errorf("value = %d, want 1", g.Value())
	}
	if g.Max() != 7 {
		t.Errorf("max = %d, want 7", g.Max())
	}
}

func TestRegistrySnapshotAndRenderProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_inflight").Set(5)
	snap := r.Snapshot()
	if snap["b_total"] != 2 || snap["a_inflight"] != 5 || snap["a_inflight_max"] != 5 {
		t.Errorf("snapshot = %v", snap)
	}
	rendered := r.RenderProm()
	if !strings.HasPrefix(rendered, "# HELP a_inflight ") || !strings.Contains(rendered, "\na_inflight 5\n") ||
		!strings.Contains(rendered, "\nb_total 2\n") {
		t.Errorf("render = %q", rendered)
	}
}

func TestLabelSafe(t *testing.T) {
	cases := map[string]string{
		"node-a":       "node_a",
		"host.12:90":   "host_12_90",
		"ok_Already9":  "ok_Already9",
		"sp ace/slash": "sp_ace_slash",
	}
	for in, want := range cases {
		if got := LabelSafe(in); got != want {
			t.Errorf("LabelSafe(%q) = %q, want %q", in, got, want)
		}
	}
}
