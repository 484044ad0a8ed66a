package statespace_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/abe"
	"repro/internal/dist"
	"repro/internal/san"
	"repro/internal/statespace"
)

// fullCascade is CertifyCascade without the expansion-candidate test: it
// runs the expansion retry whenever the certificate is refused as
// non-memoryless, and keeps a retry's certificate only when its pass
// rewrote something.
func fullCascade(t *testing.T, cm *san.CompiledModel, fitTol float64) san.Certificate {
	t.Helper()
	opts := statespace.Options{}
	_, cert := statespace.Certify(cm, opts)
	nonMemoryless := func() bool {
		return !cert.Certified() && slices.ContainsFunc(cert.Refusals, func(r string) bool {
			return strings.HasPrefix(r, san.RefusalNonMemoryless)
		})
	}
	if nonMemoryless() {
		_, exCert, rep, err := statespace.CertifyExpanded(cm.Model(), cm.Rewards(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Expanded) > 0 {
			cert = exCert
		}
	}
	if fitTol > 0 && nonMemoryless() {
		_, fitCert, rep, err := statespace.CertifyFitted(cm.Model(), cm.Rewards(), fitTol, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Fits) > 0 {
			cert = fitCert
		}
	}
	return cert
}

// TestCascadeSkipsOnlyDiscardedRetries pins the expansion-candidate skip:
// on every model the cascade certifies or refuses exactly as a cascade that
// always runs the expansion retry, down to the certificate's JSON.
func TestCascadeSkipsOnlyDiscardedRetries(t *testing.T) {
	weibullErlang := abe.MiniErlang()
	weibullErlang.Storage.Disk.ShapeBeta = 1.5
	cases := []struct {
		name   string
		cfg    abe.Config
		fitTol float64
	}{
		{"ABE x1", abe.ABE().ScaledBy(1), 0},
		{"ABE x1 +spare OSS", abe.ABE().ScaledBy(1).WithSpareOSS(true), 0},
		{"MiniExponential", abe.MiniExponential(), 0},
		{"MiniErlang", abe.MiniErlang(), 0},
		{"MiniWeibull", abe.MiniWeibull(), 0},
		{"MiniWeibull fitted", abe.MiniWeibull(), figure4FitTolerance},
		{"MiniErlang with Weibull disks", weibullErlang, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cm := buildMini(t, c.cfg, false, 0)
			gen, cert, err := statespace.CertifyCascade(cm, c.fitTol, statespace.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if (gen != nil) != cert.Certified() {
				t.Errorf("generator %v for a certificate certified=%v", gen != nil, cert.Certified())
			}
			if got, want := mustJSON(t, cert), mustJSON(t, fullCascade(t, cm, c.fitTol)); got != want {
				t.Errorf("certificate differs from the full cascade's:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCascadeAllocsNearCertify bounds the cost of a refusal: on ABE x1,
// which no retry can rewrite, the cascade allocates little more than the
// Certify call it starts with.
func TestCascadeAllocsNearCertify(t *testing.T) {
	cm := buildMini(t, abe.ABE().ScaledBy(1), false, 0)
	opts := statespace.Options{}
	certify := testing.AllocsPerRun(3, func() { statespace.Certify(cm, opts) })
	cascade := testing.AllocsPerRun(3, func() {
		if _, _, err := statespace.CertifyCascade(cm, 0, opts); err != nil {
			t.Fatal(err)
		}
	})
	if cascade > 1.5*certify {
		t.Errorf("cascade allocates %.0f times per run, Certify %.0f: want at most 1.5x", cascade, certify)
	}
}

// expandPattern returns the activity names a refusal pattern stands for:
// every "[*]" replaced by each instance of the replicate group whose prefix
// precedes it, outermost first.
func expandPattern(t *testing.T, groups []san.ReplicateGroup, pattern string) []string {
	t.Helper()
	at := strings.Index(pattern, "[*]")
	if at < 0 {
		return []string{pattern}
	}
	i := slices.IndexFunc(groups, func(g san.ReplicateGroup) bool { return g.Prefix == pattern[:at] })
	if i < 0 {
		t.Fatalf("pattern %q: no replicate group %q", pattern, pattern[:at])
	}
	var names []string
	for k := range groups[i].Count {
		names = append(names, expandPattern(t, groups, groups[i].Instance(k)+pattern[at+len("[*]"):])...)
	}
	return names
}

// parseGroupedLine splits a grouped refusal line into its count, activity
// name or pattern, and reason.
func parseGroupedLine(t *testing.T, line string) (n int, pattern, reason string) {
	t.Helper()
	rest, ok := strings.CutPrefix(line, san.RefusalNonMemoryless+": ")
	if !ok {
		t.Fatalf("line %q lacks the %q prefix", line, san.RefusalNonMemoryless)
	}
	n = 1
	if count, tail, ok := strings.Cut(rest, " × "); ok {
		if _, err := fmt.Sscanf(count, "%d", &n); err != nil {
			t.Fatalf("line %q: count %q: %v", line, count, err)
		}
		rest = tail
	}
	quoted, ok := strings.CutPrefix(rest, "activity ")
	if !ok {
		t.Fatalf("line %q names no activity", line)
	}
	name, reason, ok := strings.Cut(quoted, `": `)
	if !ok || !strings.HasPrefix(name, `"`) {
		t.Fatalf("line %q: malformed activity", line)
	}
	return n, name[1:], reason
}

// TestABERefusalsGroupPerActivityLines pins the grouped memoryless refusals
// of ABE x1: nine lines, which expand over the model's replicate instances
// into exactly the per-activity lines, in the order each group's first
// activity appears in the model.
func TestABERefusalsGroupPerActivityLines(t *testing.T) {
	cm := buildMini(t, abe.ABE().ScaledBy(1), false, 0)
	_, cert := statespace.Certify(cm, statespace.Options{})
	if len(cert.Refusals) != 9 {
		t.Fatalf("want 9 refusal lines, got %d: %q", len(cert.Refusals), cert.Refusals)
	}
	perActivity := statespace.PerActivityRefusals(cm)
	if len(perActivity) != 1002 {
		t.Fatalf("want 1002 per-activity refusals, got %d", len(perActivity))
	}
	groups := cm.Model().ReplicateGroups()
	groupOf := map[string]int{} // per-activity line -> index of its grouped line
	var expanded []string
	for gi, line := range cert.Refusals {
		n, pattern, reason := parseGroupedLine(t, line)
		names := expandPattern(t, groups, pattern)
		if len(names) != n {
			t.Errorf("line %q: pattern expands to %d activities, count says %d", line, len(names), n)
		}
		for _, name := range names {
			l := fmt.Sprintf("%s: activity %q: %s", san.RefusalNonMemoryless, name, reason)
			expanded = append(expanded, l)
			groupOf[l] = gi
		}
	}
	if !slices.Equal(slices.Sorted(slices.Values(expanded)), slices.Sorted(slices.Values(perActivity))) {
		t.Fatalf("grouped lines do not expand into the per-activity lines")
	}
	var order []int
	for _, l := range perActivity {
		if gi := groupOf[l]; !slices.Contains(order, gi) {
			order = append(order, gi)
		}
	}
	for i, gi := range order {
		if gi != i {
			t.Fatalf("groups appear in model order %v, want 0..%d", order, len(order)-1)
		}
	}
}

// buildWeibullFarm replicates a repairable unit over five instances whose
// Weibull lifetimes differ in shape: instances 0-2 wear out at shape 1.5,
// instance 3 at shape 2, instance 4 is exponential (shape 1), and every
// repair is a fixed timer.
func buildWeibullFarm(t *testing.T) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("farm")
	shapes := []float64{1.5, 1.5, 1.5, 2, 1}
	err := san.Replicate(m, "farm", len(shapes), func(m *san.Model, prefix string, i int) error {
		up := m.AddPlace(san.Qualify(prefix, "up"), 1)
		down := m.AddPlace(san.Qualify(prefix, "down"), 0)
		life, err := dist.NewWeibull(shapes[i], 100)
		if err != nil {
			return err
		}
		repair, err := dist.NewDeterministic(5)
		if err != nil {
			return err
		}
		m.AddTimedActivity(san.Qualify(prefix, "fail"), life).AddInputArc(up, 1).AddOutputArc(down, 1)
		m.AddTimedActivity(san.Qualify(prefix, "repair"), repair).AddInputArc(down, 1).AddOutputArc(up, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := san.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestRefusalsSplitByReason pins the grouping rules on a farm whose
// instances do not share one delay: a differing reason splits a pattern
// into separate lines, and a group of one names its own activity.
func TestRefusalsSplitByReason(t *testing.T) {
	_, cert := statespace.Certify(buildWeibullFarm(t), statespace.Options{})
	want := []string{
		`non-memoryless: 3 × activity "farm[*]/fail": Weibull delay with shape 1.5`,
		`non-memoryless: 5 × activity "farm[*]/repair": dist.Deterministic delay`,
		`non-memoryless: activity "farm[3]/fail": Weibull delay with shape 2`,
	}
	if !slices.Equal(cert.Refusals, want) {
		t.Errorf("refusals\n%q\nwant\n%q", cert.Refusals, want)
	}
}
