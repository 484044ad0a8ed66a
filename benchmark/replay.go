package main

import (
	"fmt"
	"strings"

	"repro/internal/abe"
	"repro/internal/san"
	"repro/internal/statespace"
	"repro/internal/sweep"
)

// The traced replay re-runs a workload's sweeps through the public functions
// of each layer, in the order sweep.Run and its solvePoint call them, one
// point at a time, with a span around every call. It never touches the
// packages it measures. Its report must be byte-identical to the untraced
// sweep's; a difference means the replay no longer mirrors the sweep.

// replay runs every sweep call of w at seed and returns the merged report.
func replay(t *tracer, w workload, seed uint64) (string, error) {
	var merged *sweep.Result
	base := 0
	for _, c := range w.calls(seed) {
		res, err := replaySweep(t, c.points, c.opts, base)
		if err != nil {
			return "", err
		}
		merged = merge(merged, res)
		base += len(c.points)
	}
	h := t.begin(-1, "report.json")
	out, err := merged.JSON()
	t.end(h, 1)
	return out, err
}

// outcome is a memoized solver outcome, the replay's copy of the sweep's
// solve-cache entry.
type outcome struct {
	rewards map[string]float64 // nil when the point simulates
	solver  sweep.Solver
}

// replaySweep mirrors one sweep.Run call. Points are numbered from base.
func replaySweep(t *tracer, points []sweep.Point, opts san.Options, base int) (*sweep.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	seeds := sweep.PointSeeds(opts.Seed, len(points))
	cache := map[string]*outcome{}
	res := &sweep.Result{Options: opts}
	for i, pt := range points {
		id := base + i
		ph := t.begin(id, spanPoint)
		if pt.Seed != 0 {
			seeds[i] = pt.Seed
		}
		ptOpts := opts
		ptOpts.Seed = seeds[i]
		ptOpts = ptOpts.WithDefaults()
		label := pt.Label
		if label == "" {
			label = pt.Config.Name
		}

		var cm *san.CompiledModel
		var rewards []san.RewardVariable
		var out outcome
		var err error
		if pt.ForceSimulation {
			out.solver = sweep.Solver{Method: sweep.MethodSimulation, Reasons: []string{"forced: point requests simulation"}}
			if cm, rewards, err = compile(t, id, pt.Config); err != nil {
				return nil, fmt.Errorf("point %d (%s): %w", i, label, err)
			}
		} else {
			pre := t.begin(id, spanPrepass)
			if cm, rewards, err = compile(t, id, pt.Config); err != nil {
				return nil, fmt.Errorf("point %d (%s): %w", i, label, err)
			}
			fh := t.begin(id, "san.fingerprint")
			fp := cm.Fingerprint()
			t.end(fh, 1)
			if hit, ok := cache[fp]; ok {
				out = *hit
				out.solver.Cache = sweep.CacheHit
				t.add("sweep.cache_hits", 1)
			} else {
				if out, err = solvePoint(t, id, pt.Config, cm, ptOpts.Mission, opts.PHFitTolerance); err != nil {
					return nil, fmt.Errorf("point %d (%s): %w", i, label, err)
				}
				stored := out
				cache[fp] = &stored
				out.solver.Cache = sweep.CacheMiss
				t.add("sweep.cache_misses", 1)
			}
			// The pre-pass span counts 1 when the point simulates anyway.
			wasted := int64(0)
			if out.rewards == nil {
				wasted = 1
				t.add("statespace.refused_points", 1)
			}
			t.end(pre, wasted)
		}

		pr, events, err := finishPoint(t, id, pt, cm, rewards, ptOpts, out)
		if err != nil {
			return nil, fmt.Errorf("point %d (%s): %w", i, label, err)
		}
		pr.Label, pr.Seed = label, seeds[i]
		res.Points = append(res.Points, pr)
		res.TotalEvents += events
		t.end(ph, 1)
	}
	return res, nil
}

// compile is the sweep's per-point build: abe.Build, then san.Compile.
func compile(t *tracer, point int, cfg abe.Config) (*san.CompiledModel, []san.RewardVariable, error) {
	model, rewards, err := build(t, point, cfg)
	if err != nil {
		return nil, nil, err
	}
	h := t.begin(point, "san.compile")
	cm, err := san.Compile(model, rewards)
	t.end(h, 1)
	return cm, rewards, err
}

// build composes a fresh model for cfg.
func build(t *tracer, point int, cfg abe.Config) (*san.Model, []san.RewardVariable, error) {
	h := t.begin(point, "abe.build")
	defer t.end(h, 1)
	model := san.NewModel(cfg.Name)
	mp, err := abe.Build(model, cfg)
	if err != nil {
		return nil, nil, err
	}
	return model, mp.Rewards(), nil
}

// solvePoint mirrors the sweep's certification cascade: plain certify, the
// phase-type expansion retry on a fresh build, the approximate-fit retry on
// another fresh build when fitTol > 0, and the transient solve.
func solvePoint(t *tracer, point int, cfg abe.Config, cm *san.CompiledModel, mission, fitTol float64) (outcome, error) {
	var out outcome
	h := t.begin(point, "statespace.certify")
	gen, cert := statespace.Certify(cm, statespace.Options{})
	t.end(h, 1)
	nonMemoryless := func() bool { return !cert.Certified() && hasPrefix(cert.Refusals, san.RefusalNonMemoryless) }
	if nonMemoryless() {
		model, rewards, err := build(t, point, cfg)
		if err != nil {
			return out, err
		}
		h := t.begin(point, "statespace.expand")
		exGen, exCert, rep, err := statespace.CertifyExpanded(model, rewards, statespace.Options{})
		t.end(h, 1)
		t.add("statespace.expand_calls", 1)
		if err != nil {
			return out, err
		}
		if len(rep.Expanded) > 0 {
			gen, cert = exGen, exCert
		}
	}
	if nonMemoryless() && fitTol > 0 {
		model, rewards, err := build(t, point, cfg)
		if err != nil {
			return out, err
		}
		h := t.begin(point, "statespace.fit")
		fitGen, fitCert, rep, err := statespace.CertifyFitted(model, rewards, fitTol, statespace.Options{})
		t.end(h, 1)
		t.add("statespace.fit_calls", 1)
		if err != nil {
			return out, err
		}
		if len(rep.Fits) > 0 {
			gen, cert = fitGen, fitCert
		}
	}
	c := cert
	out.solver.Certificate = &c
	if !cert.Certified() {
		out.solver.Method = sweep.MethodSimulation
		out.solver.Reasons = cert.Refusals
		return out, nil
	}
	edges := gen.NumTransitions()
	h = t.begin(point, "statespace.solve")
	rewards, err := gen.SolveTransient(mission)
	t.end(h, int64(edges))
	t.add("statespace.states", float64(len(gen.States)))
	if err != nil {
		out.solver.Method = sweep.MethodSimulation
		out.solver.Reasons = []string{err.Error()}
		return out, nil
	}
	out.rewards = rewards
	out.solver.Method = sweep.MethodUniformization
	if len(cert.Approximations) > 0 {
		out.solver.Method = sweep.MethodUniformizationApprox
	}
	return out, nil
}

// finishPoint simulates a point the solver did not answer, one replication
// at a time on one simulator, then reduces it as the sweep does: the study,
// the measures, and the model_stats view.
func finishPoint(t *tracer, point int, pt sweep.Point, cm *san.CompiledModel, rewards []san.RewardVariable, opts san.Options, out outcome) (sweep.PointResult, uint64, error) {
	var results []san.Result
	if out.rewards == nil {
		var sim *san.Simulator
		for rep, seed := range san.ReplicationSeeds(opts) {
			h := t.begin(point, "san.sim")
			stream := san.ReplicationStream(seed, rep)
			var err error
			if sim == nil {
				sim, err = cm.NewSimulator(stream)
			} else {
				err = sim.Reset(stream)
			}
			var r san.Result
			if err == nil {
				r, err = sim.Run(opts.Mission)
			}
			t.end(h, int64(r.Events))
			if err != nil {
				return sweep.PointResult{}, 0, fmt.Errorf("replication %d: %w", rep, err)
			}
			results = append(results, r)
			t.add("san.sim_reps", 1)
		}
	} else {
		r := san.Result{Rewards: out.rewards, FinalTime: opts.Mission}
		results = []san.Result{r, r}
	}

	h := t.begin(point, "abe.measures")
	study := san.NewStudyResult(rewards, opts)
	for _, r := range results {
		study.Add(r)
	}
	m, err := abe.MeasuresFromStudy(pt.Config, study)
	t.end(h, 1)
	if err != nil {
		return sweep.PointResult{}, 0, err
	}

	var ms abe.ModelStats
	if pt.Config.LumpsAnything() {
		h := t.begin(point, "abe.build")
		ms, err = pt.Config.ModelStats()
		t.end(h, 2)
		if err != nil {
			return sweep.PointResult{}, 0, fmt.Errorf("model stats: %w", err)
		}
	} else {
		built := cm.Stats()
		ms = abe.ModelStats{
			Places: built.Places, Activities: built.Activities,
			FlatPlaces: built.Places, FlatActivities: built.Activities,
		}
	}
	return sweep.PointResult{Measures: m, ModelStats: ms, Solver: out.solver}, study.TotalEvents, nil
}

// hasPrefix reports whether any refusal starts with prefix.
func hasPrefix(refusals []string, prefix string) bool {
	for _, r := range refusals {
		if strings.HasPrefix(r, prefix) {
			return true
		}
	}
	return false
}
