package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one sweep point share the
// point id; workload-level spans have point -1.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // 0 for a root span
	Workload   string `json:"workload"`
	Point      int    `json:"point"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Count      int64  `json:"count"` // the layer's work counter: builds, edges, events
}

// Container spans group a point's layer calls; their self time is the
// replay's own glue, not a layer's.
const (
	spanPoint   = "sweep.point"
	spanPrepass = "sweep.prepass"
)

// layerSpans are the names of the spans around layer calls, and
// replayCounters the work counters the replay records; a layer or counter a
// workload never reaches reads zero.
var (
	layerSpans = []string{
		"abe.build", "abe.measures", "san.compile", "san.fingerprint", "san.sim",
		"statespace.certify", "statespace.expand", "statespace.fit", "statespace.solve", "report.json",
	}
	replayCounters = []string{
		"sweep.cache_hits", "sweep.cache_misses", "statespace.refused_points", "statespace.expand_calls",
		"statespace.fit_calls", "statespace.states", "san.sim_reps",
	}
)

// tracer keeps spans in memory. Spans nest by call order: a span begun while
// another is open is its child.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // indexes into spans of the open spans, innermost last
	allocs   []metrics.Sample
	counters map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		origin:   time.Now(),
		allocs:   []metrics.Sample{{Name: allocsMetric}},
		counters: map[string]float64{},
	}
}

const allocsMetric = "/gc/heap/allocs:bytes"

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(point int, name string) int {
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Point: point, Name: name,
		AllocBytes: t.heapAllocs(),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].StartNS = int64(time.Since(t.origin))
	return i
}

// end closes the innermost open span, which must be h, recording count.
func (t *tracer) end(h int, count int64) {
	end := int64(time.Since(t.origin))
	s := &t.spans[h]
	s.EndNS = end
	s.AllocBytes = t.heapAllocs() - s.AllocBytes
	s.Count = count
	t.open = t.open[:len(t.open)-1]
}

// add bumps a work counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) { t.counters[name] += v }

// spanCost times n empty spans on a scratch tracer and returns the cost of
// one, in seconds.
func spanCost(n int) float64 {
	t := newTracer("")
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(0, "empty"), 0)
	}
	return time.Since(start).Seconds() / float64(n)
}

// selfTimes returns each span's duration minus the part of it covered by
// its children (the union of their intervals, clipped to the span), and the
// same for allocated bytes (minus the children's).
func selfTimes(spans []span) (selfNS []int64, selfAlloc []int64) {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], s)
		}
	}
	selfNS = make([]int64, len(spans))
	selfAlloc = make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		alloc := int64(s.AllocBytes)
		for _, k := range kids {
			alloc -= int64(k.AllocBytes)
			lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		selfNS[i] = s.EndNS - s.StartNS - covered
		selfAlloc[i] = alloc
	}
	return selfNS, selfAlloc
}

// layerMetrics derives the per-layer metrics from a finished replay: self
// time and bytes per layer name, the work counters, the pre-pass's inclusive
// time and its share on points that simulate anyway, and the trace's own
// soundness figures. replayS is the replay's wall time and perSpan the
// measured cost of one empty span.
func layerMetrics(t *tracer, replayS, perSpan float64) map[string]float64 {
	selfNS, selfAlloc := selfTimes(t.spans)
	m := map[string]float64{}
	for _, name := range layerSpans {
		m[name+"_s"], m[name+"_mb"], m[name+"_count"] = 0, 0, 0
	}
	for _, name := range replayCounters {
		m[name] = t.counters[name]
	}
	var layerNS, prepassNS, wastedNS int64
	for i, s := range t.spans {
		if s.Name == spanPrepass {
			prepassNS += s.EndNS - s.StartNS
			wastedNS += (s.EndNS - s.StartNS) * s.Count
		}
		if s.Name == spanPoint || s.Name == spanPrepass {
			continue
		}
		m[s.Name+"_s"] += float64(selfNS[i]) / 1e9
		m[s.Name+"_mb"] += float64(selfAlloc[i]) / 1e6
		m[s.Name+"_count"] += float64(s.Count)
		layerNS += selfNS[i]
	}
	m["abe.builds"] = m["abe.build_count"]
	m["san.sim_events"] = m["san.sim_count"]
	m["statespace.edges"] = m["statespace.solve_count"]
	m["statespace.solve_ns_per_edge"] = ratio(m["statespace.solve_s"]*1e9, m["statespace.edges"])
	m["san.sim_ns_per_event"] = ratio(m["san.sim_s"]*1e9, m["san.sim_events"])
	m["sweep.prepass_s"] = float64(prepassNS) / 1e9
	m["sweep.prepass_wasted_frac"] = ratio(float64(wastedNS), float64(prepassNS))
	m["trace.replay_s"] = replayS
	m["trace.coverage"] = ratio(float64(layerNS)/1e9, replayS)
	m["trace.spans"] = float64(len(t.spans))
	m["trace.overhead_frac"] = ratio(perSpan*float64(len(t.spans)), replayS)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
