package abe

import (
	"strings"
	"testing"

	"repro/internal/san"
)

// compileConfig builds and compiles a configuration.
func compileConfig(t *testing.T, cfg Config) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("abe")
	mp, err := Build(m, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cm, err := san.Compile(m, mp.Rewards())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return cm
}

// TestShippedConfigsAnalyzeClean: every configuration the experiments run
// must analyze clean — no vanishing loops, no dead activities —
// with zero unread-place advisories: the disks_down counter is read by the
// rare-event importance function outside the compiled model, and the build
// path declares that external reader so the analysis accounts for it.
func TestShippedConfigsAnalyzeClean(t *testing.T) {
	crews := ABE().WithLumping(true)
	crews.Storage.RepairCrews = 4
	cases := []struct {
		name string
		cfg  Config
	}{
		{"abe-flat", ABE()},
		{"abe-lumped", ABE().WithLumping(true)},
		{"abe-spare-lumped", ABE().WithSpareOSS(true).WithLumping(true)},
		{"abe-expo-lumped", ABE().WithExponentialForms().WithLumping(true)},
		{"abe-crews-lumped", crews},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cm := compileConfig(t, tc.cfg)
			rep := san.Analyze(cm)
			if !rep.Clean {
				t.Fatalf("not clean:\n%s", rep.Render())
			}
			if len(rep.UnreadPlaces) != 0 {
				t.Fatalf("unexpected unread places %v (want none: external readers are declared)", rep.UnreadPlaces)
			}
			found := false
			for _, er := range rep.ExternalReaders {
				for _, p := range er.Places {
					if p == "cfs/ddn_units/disks_down" {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("disks_down not covered by a declared external reader: %+v", rep.ExternalReaders)
			}
			if len(rep.Families) == 0 {
				t.Fatal("no families declared by the build path")
			}
		})
	}
}

// TestAnalyzeFamiliesMatchBuildChoices: the families the builder declares
// into the model must agree with the build-path predicates — the Lumped bit
// of each declared family is exactly what Build chose for it.
func TestAnalyzeFamiliesMatchBuildChoices(t *testing.T) {
	for _, cfg := range []Config{
		ABE(),
		ABE().WithLumping(true),
		ABE().WithSpareOSS(true).WithLumping(true),
		ABE().WithExponentialForms().WithLumping(true),
	} {
		cm := compileConfig(t, cfg)
		rep := san.Analyze(cm)
		byFamily := map[string]san.LumpabilityVerdict{}
		for _, f := range rep.Families {
			byFamily[f.Family] = f
		}
		s := cfg.storageConfig()
		checks := []struct {
			family string
			lumped bool
		}{
			{"cfs/oss/metadata", cfg.LumpsOSSPairs()},
			{"cfs/oss/scratch", cfg.LumpsOSSPairs()},
			{"cfs/ddn_units/controller_pairs", s.LumpsControllers()},
			{"cfs/ddn_units/tiers", s.LumpsTiers()},
			{"client/network", cfg.Lumped},
		}
		for _, c := range checks {
			f, ok := byFamily[c.family]
			if !ok {
				t.Fatalf("family %q not declared (have %v)", c.family, rep.Families)
			}
			if f.Lumped != c.lumped {
				t.Fatalf("family %q Lumped=%v, build predicate says %v (config %+v)", c.family, f.Lumped, c.lumped, cfg)
			}
			if f.Lumped && !f.Lumpable {
				t.Fatalf("family %q lumped but not lumpable", c.family)
			}
		}
	}
}

// TestLumpabilityVerdictsAgreeWithPredicates: the verdict view and the
// boolean predicates are projections of the same derivation and must agree,
// and a non-lumpable verdict must say why.
func TestLumpabilityVerdictsAgreeWithPredicates(t *testing.T) {
	crews := ABE().WithLumping(true)
	crews.Storage.RepairCrews = 4
	for _, cfg := range []Config{
		ABE(),
		ABE().WithLumping(true),
		ABE().WithSpareOSS(true).WithLumping(true),
		ABE().WithExponentialForms().WithLumping(true),
		Petascale().WithLumping(true),
		crews,
	} {
		vs := cfg.LumpabilityVerdicts()
		if len(vs) != 4 {
			t.Fatalf("want 4 verdicts, got %d", len(vs))
		}
		oss, ctrl, tier, transient := vs[0], vs[1], vs[2], vs[3]
		s := cfg.storageConfig()
		if oss.Lumped != cfg.LumpsOSSPairs() {
			t.Fatalf("oss verdict %v != LumpsOSSPairs %v", oss.Lumped, cfg.LumpsOSSPairs())
		}
		if ctrl.Lumped != s.LumpsControllers() {
			t.Fatalf("controller verdict %v != LumpsControllers %v", ctrl.Lumped, s.LumpsControllers())
		}
		if tier.Lumped != s.LumpsTiers() {
			t.Fatalf("tier verdict %v != LumpsTiers %v", tier.Lumped, s.LumpsTiers())
		}
		if transient.Lumped != cfg.Lumped {
			t.Fatalf("transient verdict %v != Lumped %v", transient.Lumped, cfg.Lumped)
		}
		if oss.Count != cfg.TotalOSSPairs() || tier.Count != s.TotalTiers() {
			t.Fatalf("verdict counts wrong: oss %d tier %d", oss.Count, tier.Count)
		}
		for _, v := range vs {
			if !v.Lumpable && len(v.Reasons) == 0 {
				t.Fatalf("family %q not lumpable but gives no reason", v.Family)
			}
			if v.Lumpable && len(v.Reasons) != 0 {
				t.Fatalf("family %q lumpable yet has reasons %v", v.Family, v.Reasons)
			}
		}
	}
}

// TestVerdictReasonsClassifyFailures pins the reason each shipped family
// fails lumping for, per failure class.
func TestVerdictReasonsClassifyFailures(t *testing.T) {
	// Default ABE: uniform OSS repairs (non-exponential), aged Weibull disks
	// and deterministic replacement (aged state), uniform controller repair.
	vs := ABE().WithLumping(true).LumpabilityVerdicts()
	oss, ctrl, tier := vs[0], vs[1], vs[2]
	if oss.Lumpable || !hasReasonPrefix(oss.Reasons, san.ReasonNonExponential) {
		t.Fatalf("oss reasons %v, want non-exponential", oss.Reasons)
	}
	if ctrl.Lumpable || !hasReasonPrefix(ctrl.Reasons, san.ReasonNonExponential) {
		t.Fatalf("controller reasons %v, want non-exponential", ctrl.Reasons)
	}
	if tier.Lumpable || !hasReasonPrefix(tier.Reasons, san.ReasonAgedState) {
		t.Fatalf("tier reasons %v, want aged state", tier.Reasons)
	}

	// Spare OSS adds the deterministic activation timer: aged state.
	vs = ABE().WithSpareOSS(true).WithExponentialForms().WithLumping(true).LumpabilityVerdicts()
	if vs[0].Lumpable || !hasReasonPrefix(vs[0].Reasons, san.ReasonAgedState) {
		t.Fatalf("spare oss reasons %v, want aged state", vs[0].Reasons)
	}

	// Shared crews couple the otherwise-exponential tiers: crew coupling.
	crews := ABE().WithExponentialForms().WithLumping(true)
	crews.Storage.RepairCrews = 4
	vs = crews.LumpabilityVerdicts()
	if vs[2].Lumpable || !hasReasonPrefix(vs[2].Reasons, san.ReasonCrewCoupling) {
		t.Fatalf("crew tier reasons %v, want crew coupling", vs[2].Reasons)
	}

	// Fully exponential forms: everything lumpable, no reasons.
	vs = ABE().WithExponentialForms().WithLumping(true).LumpabilityVerdicts()
	for _, v := range vs {
		if !v.Lumpable || !v.Lumped {
			t.Fatalf("exponential-forms family %q not lumped: %+v", v.Family, v)
		}
	}
}

func hasReasonPrefix(reasons []string, prefix string) bool {
	for _, r := range reasons {
		if strings.HasPrefix(r, prefix) {
			return true
		}
	}
	return false
}
