package metrics

// Prometheus text exposition for the Registry — the one format the
// daemons' /metrics endpoints serve: sorted sample lines preceded by
// `# HELP`/`# TYPE` metadata, histograms as `_bucket`/`_sum`/`_count`
// series. Series are emitted in deterministic sorted order and
// every name passes through LabelSafe on the way out, so a dynamically
// named series (a per-node gauge minted from a worker id) can never break
// the exposition. ParseProm is the matching validator the tests and the CI
// observability smoke use to keep the format honest.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// RenderProm writes every metric in the Prometheus text exposition format.
func (r *Registry) RenderProm() string {
	r.mu.Lock()
	type histEntry struct {
		name string
		h    *Histogram
	}
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[LabelSafe(name)] = c.Value()
	}
	gauges := make(map[string]int64, 2*len(r.gauges))
	for name, g := range r.gauges {
		gauges[LabelSafe(name)] = g.Value()
		gauges[LabelSafe(name)+"_max"] = g.Max()
	}
	hists := make([]histEntry, 0, len(r.histograms))
	for name, h := range r.histograms {
		hists = append(hists, histEntry{LabelSafe(name), h})
	}
	r.mu.Unlock()

	names := make([]string, 0, len(counters)+len(gauges)+len(hists))
	for name := range counters {
		names = append(names, name)
	}
	for name := range gauges {
		names = append(names, name)
	}
	histByName := make(map[string]*Histogram, len(hists))
	for _, he := range hists {
		names = append(names, he.name)
		histByName[he.name] = he.h
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		switch {
		case histByName[name] != nil:
			renderPromHistogram(&b, name, histByName[name])
		default:
			kind := "gauge"
			value, isCounter := counters[name]
			if isCounter {
				kind = "counter"
			} else {
				value = gauges[name]
			}
			fmt.Fprintf(&b, "# HELP %s grasp %s\n# TYPE %s %s\n%s %d\n",
				name, kind, name, kind, name, value)
		}
	}
	return b.String()
}

// renderPromHistogram emits one histogram family: cumulative `le` buckets
// ending at +Inf, then the sum and count series. `_count` is the same
// cumulative sum as the +Inf bucket, taken from one snapshot of the
// buckets, so an Observe racing the render cannot tear the family.
func renderPromHistogram(b *strings.Builder, name string, h *Histogram) {
	bounds, counts := h.Buckets()
	fmt.Fprintf(b, "# HELP %s grasp histogram\n# TYPE %s histogram\n", name, name)
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n",
			name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}

// PromStats summarises a parsed exposition.
type PromStats struct {
	// Samples counts every sample line.
	Samples int
	// Histograms counts the families declared `# TYPE ... histogram`.
	Histograms int
}

// histParse accumulates one histogram family's consistency state.
type histParse struct {
	lastLe   float64
	lastCum  int64
	buckets  int
	infCum   int64
	sawInf   bool
	count    int64
	sawCount bool
}

// ParseProm validates a Prometheus text exposition: well-formed comment
// and sample lines, metric names in the exposition alphabet, and for every
// declared histogram family — `le` bounds strictly ascending, cumulative
// bucket counts non-decreasing, a closing +Inf bucket whose count equals
// the family's `_count` series. It is deliberately a small subset of a
// real Prometheus parser: exactly strict enough to catch a malformed
// exposition in tests and CI.
func ParseProm(text string) (PromStats, error) {
	var stats PromStats
	histograms := make(map[string]*histParse)
	for lineNo, line := range strings.Split(text, "\n") {
		ln := lineNo + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return stats, fmt.Errorf("line %d: malformed comment %q", ln, line)
			}
			if !promName(fields[2]) {
				return stats, fmt.Errorf("line %d: bad metric name %q", ln, fields[2])
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge":
				case "histogram":
					stats.Histograms++
					histograms[fields[2]] = &histParse{lastLe: math.Inf(-1)}
				default:
					return stats, fmt.Errorf("line %d: unknown type %q", ln, fields[3])
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return stats, fmt.Errorf("line %d: %v", ln, err)
		}
		stats.Samples++
		base, series := histSeries(name, histograms)
		if series == "" {
			continue
		}
		hp := histograms[base]
		switch series {
		case "bucket":
			le, ok := labels["le"]
			if !ok {
				return stats, fmt.Errorf("line %d: %s_bucket without le label", ln, base)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return stats, fmt.Errorf("line %d: bad le %q: %v", ln, le, err)
				}
			}
			if bound <= hp.lastLe {
				return stats, fmt.Errorf("line %d: le %q not ascending", ln, le)
			}
			cum := int64(value)
			if cum < hp.lastCum {
				return stats, fmt.Errorf("line %d: bucket count %d below previous %d (not cumulative)", ln, cum, hp.lastCum)
			}
			hp.lastLe, hp.lastCum = bound, cum
			hp.buckets++
			if math.IsInf(bound, 1) {
				hp.sawInf, hp.infCum = true, cum
			}
		case "count":
			hp.count, hp.sawCount = int64(value), true
		}
	}
	for name, hp := range histograms {
		if hp.buckets == 0 {
			return stats, fmt.Errorf("histogram %s declared but has no buckets", name)
		}
		if !hp.sawInf {
			return stats, fmt.Errorf("histogram %s has no +Inf bucket", name)
		}
		if !hp.sawCount {
			return stats, fmt.Errorf("histogram %s has no _count series", name)
		}
		if hp.count != hp.infCum {
			return stats, fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", name, hp.count, hp.infCum)
		}
	}
	return stats, nil
}

// histSeries classifies a sample name against the declared histogram
// families: "<base>_bucket"/"_sum"/"_count" when base is a histogram.
func histSeries(name string, histograms map[string]*histParse) (base, series string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			base = strings.TrimSuffix(name, suffix)
			if _, ok := histograms[base]; ok {
				return base, suffix[1:]
			}
		}
	}
	return "", ""
}

// parseSample splits one sample line into name, labels, and value.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		end := strings.IndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		name = rest[:i]
		labels = map[string]string{}
		for _, pair := range strings.Split(rest[i+1:end], ",") {
			if pair == "" {
				continue
			}
			kv := strings.SplitN(pair, "=", 2)
			if len(kv) != 2 || !strings.HasPrefix(kv[1], `"`) || !strings.HasSuffix(kv[1], `"`) {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			labels[kv[0]] = strings.Trim(kv[1], `"`)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !promName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	value, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return name, labels, value, nil
}

// promName reports whether s is a valid exposition metric name.
func promName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
