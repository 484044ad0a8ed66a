package san

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dist"
)

// Reason prefixes for lumpability verdicts. Every reason string produced by
// DelayLumpability or the model builders starts with one of these, so tests
// and reports can classify failures without parsing free text.
const (
	// ReasonNonExponential marks a transition whose delay distribution is not
	// memoryless (uniform, empirical, ...): the count x rate aggregation of
	// exact strong lumping does not apply.
	ReasonNonExponential = "non-exponential transition"
	// ReasonAgedState marks a component that carries age across the lumping
	// boundary: a Weibull lifetime with shape != 1 or a deterministic timer
	// (e.g. spare activation). Replicas with different ages are not
	// exchangeable, so the per-state counts are not a lumped chain.
	ReasonAgedState = "aged state"
	// ReasonCrewCoupling marks replicas coupled through a shared resource
	// (the repair-crew tokens): the coupling breaks the replica symmetry
	// that lumping counts on.
	ReasonCrewCoupling = "crew coupling"
)

// DelayLumpability classifies one delay distribution of a replicated family
// for exact strong lumping. It returns "" when the delay is memoryless
// (exponential, or Weibull with shape exactly 1) and a reason string —
// prefixed with ReasonAgedState or ReasonNonExponential — otherwise.
func DelayLumpability(label string, d dist.Distribution) string {
	switch v := d.(type) {
	case dist.Exponential:
		return ""
	case dist.Weibull:
		if v.Shape() == 1 {
			return "" // shape-1 Weibull is the exponential
		}
		return fmt.Sprintf("%s: %s %s retains component age", ReasonAgedState, label, dist.Describe(d))
	case dist.Deterministic:
		return fmt.Sprintf("%s: %s %s is a timer, not memoryless", ReasonAgedState, label, dist.Describe(d))
	case nil:
		return fmt.Sprintf("%s: %s has no delay distribution", ReasonNonExponential, label)
	default:
		// Gamma/Sum delays with an exact finite phase-type form are still
		// non-memoryless here (lumping and the CTMC tier need exponentials as
		// written), but the verdict names the remedy: ExpandPhases rewrites
		// them into that many exponential stages.
		if k, ok := PhaseExpandable(d); ok {
			return fmt.Sprintf("%s: %s %s (exactly expandable into %d exponential phases)",
				ReasonNonExponential, label, dist.Describe(d), k)
		}
		return fmt.Sprintf("%s: %s %s", ReasonNonExponential, label, dist.Describe(d))
	}
}

// NamedDelay labels one per-replica delay distribution of a family for
// verdict derivation. An ordered slice (not a map) so derived verdicts list
// reasons in a deterministic order.
type NamedDelay struct {
	Label string
	Delay dist.Distribution
}

// LumpabilityVerdict is the derived lumpability answer for one replicated
// family of a composed model, with the reasons lumping fails when it does.
type LumpabilityVerdict struct {
	// Family names the replicated family (e.g. "oss_pairs", "raid_tiers").
	Family string `json:"family"`
	// Count is the number of replicas in the family.
	Count int `json:"count"`
	// Lumped reports whether the model was actually built with the lumped
	// (counted) representation of this family.
	Lumped bool `json:"lumped"`
	// Lumpable reports whether exact strong lumping applies to the family.
	Lumpable bool `json:"lumpable"`
	// Reasons lists why lumping fails, each prefixed with one of the Reason*
	// constants. Empty when Lumpable.
	Reasons []string `json:"reasons,omitempty"`
}

// DeriveLumpability builds the verdict of one replicated family from its
// per-replica delay distributions plus structural failure reasons the caller
// derives from its configuration (e.g. crew coupling). It replaces
// hand-maintained boolean predicates: the verdict is false exactly when some
// delay is not memoryless or a structural reason is present.
func DeriveLumpability(family string, count int, lumped bool, delays []NamedDelay, structural ...string) LumpabilityVerdict {
	v := LumpabilityVerdict{Family: family, Count: count, Lumped: lumped, Lumpable: true}
	for _, nd := range delays {
		if r := DelayLumpability(nd.Label, nd.Delay); r != "" {
			v.Reasons = append(v.Reasons, r)
			v.Lumpable = false
		}
	}
	for _, s := range structural {
		if s != "" {
			v.Reasons = append(v.Reasons, s)
			v.Lumpable = false
		}
	}
	return v
}

// DeclareFamily records the lumpability verdict of a replicated family on
// the model, for Analyze to report. Model builders call it once per family
// at composition time (the layer that knows the replica count and the chosen
// representation).
func (m *Model) DeclareFamily(v LumpabilityVerdict) {
	m.families = append(m.families, v)
}

// Families returns the declared replicated-family verdicts in declaration
// order.
func (m *Model) Families() []LumpabilityVerdict {
	return append([]LumpabilityVerdict(nil), m.families...)
}

// VanishingLoop describes a set of instantaneous activities that can fire
// each other (or themselves) forever at one time instant — the structural
// defect that otherwise only surfaces at runtime as ErrUnstableModel.
type VanishingLoop struct {
	// Activities lists the activity names on the loop, sorted.
	Activities []string `json:"activities"`
	// Kind is "always-enabled" (no enabling inputs at all),
	// "self-sustaining" (the activity's own outputs keep it enabled), or
	// "cycle" (a token cycle through several instantaneous activities).
	Kind string `json:"kind"`
	// Definite reports whether the loop must fire forever whenever reached
	// (no input-gate predicate could break it). Non-definite loops are
	// possible vanishing loops the analysis cannot rule out.
	Definite bool `json:"definite"`
}

// DeadActivity describes an activity that can never fire because one of its
// input places can never hold enough tokens: the place's initial marking is
// below the arc multiplicity and no activity output arc or gate
// transformation ever adds tokens to it.
type DeadActivity struct {
	Activity string `json:"activity"`
	Place    string `json:"place"`
}

// AnalysisReport is the result of static structural analysis of a compiled
// model: the pre-flight checks the paper's Möbius workflow runs on the
// composed model before choosing a solver.
type AnalysisReport struct {
	// Model is the model name.
	Model string `json:"model"`
	// Places, Activities, and Instantaneous are model-size counters.
	Places        int `json:"places"`
	Activities    int `json:"activities"`
	Instantaneous int `json:"instantaneous"`
	// VanishingLoops lists instantaneous-activity loops (see VanishingLoop).
	VanishingLoops []VanishingLoop `json:"vanishing_loops,omitempty"`
	// DeadActivities lists activities that can never fire.
	DeadActivities []DeadActivity `json:"dead_activities,omitempty"`
	// UnreadPlaces lists places some activity or gate writes but nothing —
	// no enabling condition, gate, reward, case probability, delay function,
	// or declared external reader — ever reads: wasted state that inflates
	// the marking (and can block lumping) without influencing any measure.
	// Places kept for importance functions or external monitors are excused
	// by declaring the consumer with Model.DeclareExternalReader.
	UnreadPlaces []string `json:"unread_places,omitempty"`
	// ExternalReaders echoes the declared out-of-model readers whose reads
	// were folded into the analysis.
	ExternalReaders []ExternalReader `json:"external_readers,omitempty"`
	// Families are the declared replicated-family lumpability verdicts.
	Families []LumpabilityVerdict `json:"families,omitempty"`
	// Clean reports that the model has no vanishing loops and no dead
	// activities. Unread places are advisory and do not affect Clean.
	Clean bool `json:"clean"`
}

// probeMarking is the instrumented marking Analyze executes gate and reward
// closures against: it records every place read and written, tolerates
// negative token counts (optionally clamping at zero so decrement-then-test
// branches are reachable from a zero base), and never panics.
type probeMarking struct {
	tokens []int
	clamp  bool
	reads  []bool
	writes []bool
}

func (pm *probeMarking) Tokens(p *Place) int {
	if p == nil || p.index < 0 || p.index >= len(pm.tokens) {
		return 0
	}
	pm.reads[p.index] = true
	return pm.tokens[p.index]
}

func (pm *probeMarking) SetTokens(p *Place, n int) {
	if p == nil || p.index < 0 || p.index >= len(pm.tokens) {
		return
	}
	pm.writes[p.index] = true
	pm.tokens[p.index] = n
}

func (pm *probeMarking) Add(p *Place, delta int) {
	if p == nil || p.index < 0 || p.index >= len(pm.tokens) {
		return
	}
	pm.writes[p.index] = true
	pm.tokens[p.index] += delta
	if pm.clamp && pm.tokens[p.index] < 0 {
		pm.tokens[p.index] = 0
	}
}

// probeSet aggregates read/write discovery across several probe executions.
type probeSet struct {
	n      int
	reads  []bool
	writes []bool
	// opaque is set when a probed closure panicked: its effects are unknown,
	// so every place must be treated as both read and written.
	opaque bool
}

func newProbeSet(n int) *probeSet {
	return &probeSet{n: n, reads: make([]bool, n), writes: make([]bool, n)}
}

// baseMarkings returns the synthetic markings closures are probed under:
// all-zero, the initial marking, all-one, and all-two, each with and without
// clamping. Diverse bases improve branch coverage of conditional gate logic
// (e.g. "decrement, then act only when the count hits zero").
func baseMarkings(initial []int) [][]int {
	n := len(initial)
	uniform := func(v int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	return [][]int{uniform(0), append([]int(nil), initial...), uniform(1), uniform(2)}
}

// probe runs fn against each base marking (with and without clamping) and
// folds the recorded reads and writes into ps. A panicking closure marks the
// whole set opaque.
func (ps *probeSet) probe(bases [][]int, fn func(pm *probeMarking)) {
	for _, base := range bases {
		for _, clamp := range []bool{false, true} {
			pm := &probeMarking{
				tokens: append([]int(nil), base...),
				clamp:  clamp,
				reads:  make([]bool, ps.n),
				writes: make([]bool, ps.n),
			}
			if !runProbe(pm, fn) {
				ps.opaque = true
				return
			}
			for i := range pm.reads {
				ps.reads[i] = ps.reads[i] || pm.reads[i]
				ps.writes[i] = ps.writes[i] || pm.writes[i]
			}
		}
	}
}

// runProbe executes fn(pm), converting panics into a false return so an
// exotic closure degrades the analysis instead of crashing it.
func runProbe(pm *probeMarking, fn func(pm *probeMarking)) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	fn(pm)
	return true
}

// Analyze runs static structural analysis over a compiled model: vanishing
// loops among instantaneous activities, statically-dead activities, places
// written but never read, and the declared replicated-family lumpability
// verdicts. It executes gate, reward, probability, and delay closures
// against instrumented markings (never the simulator), so it is safe to call
// on any compiled model; conditional writes hidden behind branches no probe
// marking reaches can be missed, which is why tests analyze every shipped
// configuration.
func Analyze(cm *CompiledModel) AnalysisReport {
	model := cm.model
	nPlaces := model.NumPlaces()
	rep := AnalysisReport{
		Model:         model.Name(),
		Places:        nPlaces,
		Activities:    model.NumActivities(),
		Instantaneous: len(cm.instantaneous),
		Families:      model.Families(),
	}

	ps := newProbeSet(nPlaces)
	bases := baseMarkings(cm.initial)
	probeReader := func(fn func(r MarkingReader)) {
		ps.probe(bases, func(pm *probeMarking) { fn(pm) })
	}
	written := make([]bool, nPlaces) // by output arcs or gate transforms
	read := make([]bool, nPlaces)    // by any enabling condition, gate, reward, probability, or delay

	for _, a := range model.activities {
		for _, arc := range a.inputArcs {
			read[arc.Place.index] = true
		}
		for _, g := range a.inputGates {
			for _, p := range g.Reads {
				read[p.index] = true
			}
			if g.Enabled != nil {
				pred := g.Enabled
				probeReader(func(r MarkingReader) { pred(r) })
			}
			if g.Transform != nil {
				tr := g.Transform
				ps.probe(bases, func(pm *probeMarking) { tr(pm) })
			}
		}
		if a.kind == Timed && a.delay != nil {
			delay := a.delay
			probeReader(func(r MarkingReader) { delay(r) })
		}
		for _, c := range a.cases {
			for _, arc := range c.OutputArcs {
				written[arc.Place.index] = true
			}
			for _, og := range c.OutputGates {
				if og != nil && og.Transform != nil {
					tr := og.Transform
					ps.probe(bases, func(pm *probeMarking) { tr(pm) })
				}
			}
			if c.Probability != nil {
				prob := c.Probability
				probeReader(func(r MarkingReader) { prob(r) })
			}
		}
	}
	for _, rv := range cm.rewards {
		if rv.Rate != nil {
			rate := rv.Rate
			probeReader(func(r MarkingReader) { rate(r) })
		}
		for _, name := range sortedKeys(rv.Impulses) {
			fn := rv.Impulses[name]
			probeReader(func(r MarkingReader) { fn(r) })
		}
	}
	for i := 0; i < nPlaces; i++ {
		if ps.opaque {
			written[i] = true
			read[i] = true
			continue
		}
		written[i] = written[i] || ps.writes[i]
		read[i] = read[i] || ps.reads[i]
	}
	// Declared external readers (rare-event importance functions, monitors)
	// count as reads: the places they watch are kept state, not waste.
	for _, er := range model.externalReads {
		rec := ExternalReader{Name: er.name}
		for _, p := range er.places {
			if p == nil || p.index < 0 || p.index >= nPlaces {
				continue
			}
			read[p.index] = true
			rec.Places = append(rec.Places, p.name)
		}
		sort.Strings(rec.Places)
		rep.ExternalReaders = append(rep.ExternalReaders, rec)
	}
	sort.Slice(rep.ExternalReaders, func(i, j int) bool {
		return rep.ExternalReaders[i].Name < rep.ExternalReaders[j].Name
	})

	rep.DeadActivities = deadActivities(model, written)
	rep.VanishingLoops = vanishingLoops(cm, ps)
	for _, p := range model.places {
		if written[p.index] && !read[p.index] {
			rep.UnreadPlaces = append(rep.UnreadPlaces, p.name)
		}
	}
	sort.Strings(rep.UnreadPlaces)
	rep.Clean = len(rep.VanishingLoops) == 0 && len(rep.DeadActivities) == 0
	return rep
}

// deadActivities finds activities with an input place that can never hold
// enough tokens: nothing ever writes it and its initial marking is below the
// arc multiplicity.
func deadActivities(model *Model, written []bool) []DeadActivity {
	var out []DeadActivity
	for _, a := range model.activities {
		for _, arc := range a.inputArcs {
			p := arc.Place
			if !written[p.index] && p.initial < arc.Mult {
				out = append(out, DeadActivity{Activity: a.name, Place: p.name})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Activity != out[j].Activity {
			return out[i].Activity < out[j].Activity
		}
		return out[i].Place < out[j].Place
	})
	return out
}

// vanishingLoops finds instantaneous activities that can fire forever at one
// instant: activities with no enabling inputs, activities whose own case
// outputs keep them enabled, and token cycles through several instantaneous
// activities.
func vanishingLoops(cm *CompiledModel, ps *probeSet) []VanishingLoop {
	var out []VanishingLoop
	for _, a := range cm.instantaneous {
		hasPredicate := false
		for _, g := range a.inputGates {
			if g.Enabled != nil {
				hasPredicate = true
			}
		}
		if len(a.inputArcs) == 0 {
			out = append(out, VanishingLoop{
				Activities: []string{a.name},
				Kind:       "always-enabled",
				Definite:   !hasPredicate,
			})
			continue
		}
		if sustaining, all := selfSustaining(a); sustaining {
			out = append(out, VanishingLoop{
				Activities: []string{a.name},
				Kind:       "self-sustaining",
				Definite:   all && !hasPredicate,
			})
		}
	}
	out = append(out, instantaneousCycles(cm, ps)...)
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Activities, ",") < strings.Join(out[j].Activities, ",")
	})
	return out
}

// selfSustaining reports whether some case of a returns at least the
// consumed multiplicity to every input place (the firing re-enables the
// activity), and whether every case does (the loop is then unavoidable).
func selfSustaining(a *Activity) (some, all bool) {
	cases := a.cases
	if len(cases) == 0 {
		cases = []Case{{}}
	}
	all = true
	for _, c := range cases {
		returned := make(map[*Place]int)
		for _, arc := range c.OutputArcs {
			returned[arc.Place] += arc.Mult
		}
		sustains := true
		for _, arc := range a.inputArcs {
			if returned[arc.Place] < arc.Mult {
				sustains = false
				break
			}
		}
		if sustains {
			some = true
		} else {
			all = false
		}
	}
	if !some {
		all = false
	}
	return some, all
}

// instantaneousCycles finds strongly connected components of two or more
// instantaneous activities in the token-flow graph (an edge a -> b when
// firing a can add tokens to an input place of b).
func instantaneousCycles(cm *CompiledModel, ps *probeSet) []VanishingLoop {
	inst := cm.instantaneous
	if len(inst) < 2 {
		return nil
	}
	idx := make(map[*Activity]int, len(inst))
	for i, a := range inst {
		idx[a] = i
	}
	// outputs[i] is the set of place indexes firing inst[i] can write.
	outputs := make([]map[int]bool, len(inst))
	for i, a := range inst {
		outputs[i] = make(map[int]bool)
		for _, c := range a.cases {
			for _, arc := range c.OutputArcs {
				outputs[i][arc.Place.index] = true
			}
			for _, og := range c.OutputGates {
				if og != nil && og.Transform != nil {
					// Gate writes were discovered by probing; attribute the
					// union to every gate-bearing activity (conservative).
					for pi, w := range ps.writes {
						if w {
							outputs[i][pi] = true
						}
					}
				}
			}
		}
	}
	adj := make([][]int, len(inst))
	for i := range inst {
		for j, b := range inst {
			if i == j {
				continue
			}
			for _, arc := range b.inputArcs {
				if outputs[i][arc.Place.index] {
					adj[i] = append(adj[i], j)
					break
				}
			}
		}
	}
	var loops []VanishingLoop
	for _, comp := range stronglyConnected(adj) {
		if len(comp) < 2 {
			continue
		}
		names := make([]string, len(comp))
		for i, v := range comp {
			names[i] = inst[v].name
		}
		sort.Strings(names)
		loops = append(loops, VanishingLoop{Activities: names, Kind: "cycle", Definite: false})
	}
	return loops
}

// stronglyConnected returns the strongly connected components of the graph
// (Tarjan, iterative enough for the small instantaneous subgraph).
func stronglyConnected(adj [][]int) [][]int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	return comps
}

// sortedKeys returns the keys of m in sorted order, so map-backed APIs are
// iterated deterministically (the determinism contract sanlint enforces).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render returns the analysis report as indented text, the form
// `abesim -analyze` prints.
func (r AnalysisReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis: %s\n", r.Model)
	fmt.Fprintf(&b, "  places %d, activities %d (%d instantaneous)\n", r.Places, r.Activities, r.Instantaneous)
	if len(r.VanishingLoops) == 0 {
		b.WriteString("  vanishing loops: none\n")
	} else {
		b.WriteString("  vanishing loops:\n")
		for _, l := range r.VanishingLoops {
			definite := "possible"
			if l.Definite {
				definite = "definite"
			}
			fmt.Fprintf(&b, "    - %s (%s, %s)\n", strings.Join(l.Activities, " -> "), l.Kind, definite)
		}
	}
	if len(r.DeadActivities) == 0 {
		b.WriteString("  dead activities: none\n")
	} else {
		b.WriteString("  dead activities:\n")
		for _, d := range r.DeadActivities {
			fmt.Fprintf(&b, "    - %s (input place %s can never be tokened)\n", d.Activity, d.Place)
		}
	}
	if len(r.UnreadPlaces) > 0 {
		fmt.Fprintf(&b, "  unread places (advisory): %s\n", strings.Join(r.UnreadPlaces, ", "))
	}
	for _, er := range r.ExternalReaders {
		fmt.Fprintf(&b, "  external reader: %s reads %s\n", er.Name, strings.Join(er.Places, ", "))
	}
	if len(r.Families) > 0 {
		b.WriteString("  families:\n")
		b.WriteString(RenderVerdicts(r.Families, "    "))
	}
	fmt.Fprintf(&b, "  clean: %v\n", r.Clean)
	return b.String()
}

// RenderVerdicts renders a list of lumpability verdicts as indented text,
// one "- family n=count built=form lumpable=bool" line per family with its
// failure reasons beneath. Shared by AnalysisReport.Render and the abesim
// -analyze output.
func RenderVerdicts(vs []LumpabilityVerdict, indent string) string {
	var b strings.Builder
	for _, f := range vs {
		form := "flat"
		if f.Lumped {
			form = "lumped"
		}
		fmt.Fprintf(&b, "%s- %s n=%d built=%s lumpable=%v\n", indent, f.Family, f.Count, form, f.Lumpable)
		for _, reason := range f.Reasons {
			fmt.Fprintf(&b, "%s    %s\n", indent, reason)
		}
	}
	return b.String()
}
