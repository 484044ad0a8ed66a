package san

import (
	"fmt"
	"strings"
)

// ActivityRefusals collects the per-activity refusals of one pass (the
// certificate tier's memoryless check, ExpandPhases, FitPhases) and states
// each reason once per replicate pattern. An activity's pattern is its name
// with every Replicate instance it lies under replaced by "[*]", the
// instances taken from the model's ReplicateGroups; activities sharing a
// pattern and a reason make one group. Lines lists the groups in the order
// each group's first activity was added, so a replicated model refuses in a
// few lines however many instances it has, while a model without replicate
// groups refuses in one line per refused activity.
type ActivityRefusals struct {
	prefix    string
	groups    []ReplicateGroup
	instances map[string]int // instance prefix -> length of its group prefix
	refused   []refusalGroup
	index     map[refusalKey]int
}

type refusalKey struct{ pattern, reason string }

// refusalGroup is one line of an ActivityRefusals: its key, the name of its
// first activity, and how many activities share the key.
type refusalGroup struct {
	refusalKey
	name string
	n    int
}

// NewActivityRefusals returns an empty refusal list for the activities of
// m, whose lines start with prefix (a Refusal* constant).
func NewActivityRefusals(m *Model, prefix string) *ActivityRefusals {
	return &ActivityRefusals{prefix: prefix, groups: m.replicates}
}

// Add records that the named activity is refused for reason, the text that
// follows the activity's name in its refusal line.
func (r *ActivityRefusals) Add(activity, reason string) {
	key := refusalKey{r.pattern(activity), reason}
	if i, ok := r.index[key]; ok {
		r.refused[i].n++
		return
	}
	if r.index == nil {
		r.index = make(map[refusalKey]int)
	}
	r.index[key] = len(r.refused)
	r.refused = append(r.refused, refusalGroup{refusalKey: key, name: activity, n: 1})
}

// Lines returns one refusal line per group, in the order of each group's
// first activity, or nil when nothing was refused. A group of n > 1
// activities reads `<prefix>: n × activity "<pattern>": <reason>`; a group
// of one names its activity: `<prefix>: activity "<name>": <reason>`.
func (r *ActivityRefusals) Lines() []string {
	if len(r.refused) == 0 {
		return nil
	}
	lines := make([]string, len(r.refused))
	for i, g := range r.refused {
		if g.n == 1 {
			lines[i] = fmt.Sprintf("%s: activity %q: %s", r.prefix, g.name, g.reason)
		} else {
			lines[i] = fmt.Sprintf("%s: %d × activity %q: %s", r.prefix, g.n, g.pattern, g.reason)
		}
	}
	return lines
}

// pattern returns name with every replicate instance prefix it lies under
// ("farm[3]" of "farm[3]/repair") replaced by its group's "farm[*]". The
// instance set is built on the first call, so a pass that refuses nothing
// never builds it.
func (r *ActivityRefusals) pattern(name string) string {
	if len(r.groups) == 0 {
		return name
	}
	if r.instances == nil {
		r.instances = make(map[string]int)
		for _, g := range r.groups {
			for i := range g.Count {
				r.instances[g.Instance(i)] = len(g.Prefix)
			}
		}
	}
	var b strings.Builder
	done := 0
	for end := 1; end <= len(name); end++ {
		if end < len(name) && name[end] != '/' {
			continue
		}
		if at, ok := r.instances[name[:end]]; ok {
			b.WriteString(name[done:at])
			b.WriteString("[*]")
			done = end
		}
	}
	if done == 0 {
		return name
	}
	b.WriteString(name[done:])
	return b.String()
}
