package experiments

import (
	"fmt"
	"strings"

	"repro/internal/abe"
	"repro/internal/san"
	"repro/internal/statespace"
)

// ConfigAnalysis is the static analysis of one experiment configuration:
// the per-family lumpability verdicts (cheap, derived from the
// configuration alone) and, for the first point of each distinct model
// shape, the full structural report from san.Analyze.
type ConfigAnalysis struct {
	Label    string                   `json:"label"`
	Verdicts []san.LumpabilityVerdict `json:"verdicts"`
	// Report is the structural analysis of the compiled model. Scaling a
	// configuration replicates families without changing the activity
	// structure, so the report is computed once per distinct design variant
	// (at its first, smallest point) and omitted on the scaled repeats.
	Report *san.AnalysisReport `json:"report,omitempty"`
	// Certificate is the solver-tier structural certificate
	// (statespace.Certify) of the same reference-scale model the Report
	// covers: either a proof that the certified uniformization solver may
	// answer the configuration, or the structured refusals explaining why it
	// must simulate.
	Certificate *san.Certificate `json:"certificate,omitempty"`
}

// ExperimentAnalysis is the -analyze section of an abesim run: the static
// analyses of the configurations the named experiment evaluates.
type ExperimentAnalysis struct {
	Experiment string           `json:"experiment"`
	Configs    []ConfigAnalysis `json:"configs"`
	// Clean aggregates the structural reports: true when every analyzed
	// model is free of vanishing loops and dead activities.
	Clean bool `json:"clean"`
}

// analyzeConfig builds and compiles the configuration, runs the full
// structural analysis, and runs the solver-tier certification cascade
// (statespace.CertifyCascade) without the approximate-fit rung.
func analyzeConfig(cfg abe.Config) (*san.AnalysisReport, *san.Certificate, error) {
	m := san.NewModel(cfg.Name)
	mp, err := abe.Build(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	cm, err := san.Compile(m, mp.Rewards())
	if err != nil {
		return nil, nil, err
	}
	rep := san.Analyze(cm)
	_, cert, err := statespace.CertifyCascade(cm, 0, statespace.Options{})
	if err != nil {
		return nil, nil, err
	}
	return &rep, &cert, nil
}

// AnalyzeExperiment statically analyzes the model configurations the named
// experiment runs, without simulating anything. For the sweep-backed
// figure4 experiment every sweep point contributes its verdicts, and each
// distinct design variant (base, spare OSS) contributes one structural
// report at its reference scale. Every other experiment is analyzed against
// the ABE reference composition in its flat and lumped forms.
func AnalyzeExperiment(name string, opts Options) (*ExperimentAnalysis, error) {
	opts = opts.withDefaults()
	out := &ExperimentAnalysis{Experiment: name, Clean: true}
	switch name {
	case "figure4":
		factors := Figure4ScaleFactors(opts.Quick)
		// The cross-check pair shares one model, so analyze its config once.
		points := append(Figure4Points(opts.Seed, factors), Figure4CrossCheckPoints(opts.Seed)[0])
		points = append(points, Figure4ErlangCrossCheckPoints(opts.Seed)[0])
		seenVariant := map[string]bool{} // keyed by the distinct model shapes
		for _, pt := range points {
			cfg := pt.Config
			label := pt.Label
			if label == "" {
				label = cfg.Name
			}
			ca := ConfigAnalysis{Label: label, Verdicts: cfg.LumpabilityVerdicts()}
			variant := fmt.Sprintf("spare=%v exp=%v erlang=%d",
				cfg.OSS.SpareOSS, cfg.Workload.ExponentialOutages, cfg.Infrastructure.ErlangRepairStages)
			if !seenVariant[variant] {
				seenVariant[variant] = true
				rep, cert, err := analyzeConfig(cfg)
				if err != nil {
					return nil, fmt.Errorf("experiments: analyzing %q: %w", label, err)
				}
				ca.Report = rep
				ca.Certificate = cert
			}
			out.Configs = append(out.Configs, ca)
		}
	default:
		for _, variant := range []struct {
			label string
			cfg   abe.Config
		}{
			{"abe", abe.ABE()},
			{"abe lumped", abe.ABE().WithLumping(true)},
		} {
			rep, cert, err := analyzeConfig(variant.cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: analyzing %q: %w", variant.label, err)
			}
			out.Configs = append(out.Configs, ConfigAnalysis{
				Label:       variant.label,
				Verdicts:    variant.cfg.LumpabilityVerdicts(),
				Report:      rep,
				Certificate: cert,
			})
		}
	}
	for _, ca := range out.Configs {
		if ca.Report != nil && !ca.Report.Clean {
			out.Clean = false
		}
	}
	return out, nil
}

// Render formats the analysis as text, one block per configuration.
func (a *ExperimentAnalysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static analysis (%s):\n", a.Experiment)
	for _, ca := range a.Configs {
		fmt.Fprintf(&b, "%s\n", ca.Label)
		if len(ca.Verdicts) > 0 {
			b.WriteString("  families:\n")
			b.WriteString(san.RenderVerdicts(ca.Verdicts, "    "))
		}
		if ca.Report != nil {
			b.WriteString(indentLines(ca.Report.Render(), "  "))
		}
		if ca.Certificate != nil {
			fmt.Fprintf(&b, "  solver certificate: %s\n", ca.Certificate.Summary())
		}
	}
	fmt.Fprintf(&b, "clean: %v\n", a.Clean)
	return b.String()
}

// indentLines prefixes every non-empty line.
func indentLines(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}
