package san

import (
	"fmt"
	"slices"
	"strings"
)

// SubmodelBuilder adds the places and activities of one atomic submodel to
// the composed model m. Every name it creates must be namespaced with prefix
// (use Qualify). Shared state is expressed by capturing *Place values of the
// enclosing composition scope, mirroring the state-sharing of a Möbius Join.
type SubmodelBuilder func(m *Model, prefix string) error

// Qualify joins a namespace prefix and a local name into a hierarchical
// place/activity name.
func Qualify(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "/" + name
}

// Join composes submodels under a common namespace. Each builder receives
// the same model and a prefix of the form "<prefix>/<label>"; places created
// outside the builders (in the caller's scope) and captured by several
// builders play the role of the shared state variables of a Möbius Join
// node.
func Join(m *Model, prefix string, subs map[string]SubmodelBuilder) error {
	// Deterministic order: sort labels so composition is reproducible.
	labels := make([]string, 0, len(subs))
	for label := range subs {
		labels = append(labels, label)
	}
	sortStrings(labels)
	for _, label := range labels {
		if err := subs[label](m, Qualify(prefix, label)); err != nil {
			return fmt.Errorf("san: join %q submodel %q: %w", prefix, label, err)
		}
	}
	return nil
}

// ReplicateBuilder builds instance index of a replicated submodel.
type ReplicateBuilder func(m *Model, prefix string, index int) error

// Replicate composes n identical copies of a submodel, namespaced
// "<prefix>[i]". As with Join, shared places are the ones the builder
// captures from the enclosing scope rather than creates per instance. The
// group is recorded on the model (ReplicateGroups), so state-space
// exploration can try to collapse its exchangeable instances.
func Replicate(m *Model, prefix string, n int, build ReplicateBuilder) error {
	if n < 0 {
		return fmt.Errorf("san: replicate %q with negative count %d", prefix, n)
	}
	g := ReplicateGroup{Prefix: prefix, Count: n}
	for i := 0; i < n; i++ {
		if err := build(m, g.Instance(i), i); err != nil {
			return fmt.Errorf("san: replicate %q instance %d: %w", prefix, i, err)
		}
	}
	m.replicates = append(m.replicates, g)
	return nil
}

// ReplicateGroup records one Replicate composition: Count instances named
// "<Prefix>[i]". Identical builders make the instances candidates for
// exchangeability; whether they really are is a property of the behavior,
// which statespace checks state by state before relying on it.
type ReplicateGroup struct {
	Prefix string
	Count  int
}

// Instance returns the namespace prefix of instance i.
func (g ReplicateGroup) Instance(i int) string { return fmt.Sprintf("%s[%d]", g.Prefix, i) }

// ReplicateGroups returns the recorded Replicate groups, innermost groups
// before the groups that hold them (a group is recorded when its last
// instance is built).
func (m *Model) ReplicateGroups() []ReplicateGroup {
	return slices.Clone(m.replicates)
}

// sortStrings is a tiny insertion sort to avoid importing sort for a handful
// of labels in the hot path of model construction.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// CompositionNode describes one node of a replicate/join composition tree,
// used to render the model structure (the paper's Figure 1).
type CompositionNode struct {
	Label    string
	Kind     string // "join", "replicate", "atomic"
	Count    int    // meaningful for replicate nodes
	Children []*CompositionNode
	// Annotation, when non-empty, is rendered after the node header — model
	// builders use it to mark lumped replicate nodes and to attach the
	// model_stats view to the root.
	Annotation string
}

// Annotate sets the node annotation and returns the node for chaining.
func (n *CompositionNode) Annotate(a string) *CompositionNode {
	n.Annotation = a
	return n
}

// NewJoinNode returns a join composition node.
func NewJoinNode(label string, children ...*CompositionNode) *CompositionNode {
	return &CompositionNode{Label: label, Kind: "join", Children: children}
}

// NewReplicateNode returns a replicate composition node over a single child.
func NewReplicateNode(label string, count int, child *CompositionNode) *CompositionNode {
	return &CompositionNode{Label: label, Kind: "replicate", Count: count, Children: []*CompositionNode{child}}
}

// NewAtomicNode returns a leaf node for an atomic SAN submodel.
func NewAtomicNode(label string) *CompositionNode {
	return &CompositionNode{Label: label, Kind: "atomic"}
}

// Render returns an indented textual rendering of the composition tree.
func (n *CompositionNode) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *CompositionNode) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	suffix := ""
	if n.Annotation != "" {
		suffix = " " + n.Annotation
	}
	switch n.Kind {
	case "replicate":
		fmt.Fprintf(b, "Replicate(%s, n=%d)%s\n", n.Label, n.Count, suffix)
	case "join":
		fmt.Fprintf(b, "Join(%s)%s\n", n.Label, suffix)
	default:
		fmt.Fprintf(b, "SAN(%s)%s\n", n.Label, suffix)
	}
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// Leaves returns the atomic submodel labels in depth-first order.
func (n *CompositionNode) Leaves() []string {
	if n.Kind == "atomic" {
		return []string{n.Label}
	}
	var out []string
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}
