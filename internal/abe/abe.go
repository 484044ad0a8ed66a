// Package abe assembles the paper's composed dependability model of the ABE
// cluster file system (Figure 1) from the storage, cluster, and SAN
// substrates, defines the reward measures of Section 4.2 (storage
// availability, CFS availability, cluster utility, disk replacement rate),
// and provides the ABE and petascale configurations used throughout the
// evaluation (Table 5, Figures 2-4).
package abe

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/raid"
	"repro/internal/san"
	"repro/internal/stats"
)

// Reward-variable names produced by the composed model.
const (
	RewardStorageAvailability = "storage_availability"
	RewardCFSAvailability     = "cfs_availability"
	RewardDiskReplacements    = "disk_replacements"
	RewardLostJobsCFS         = "lost_jobs_cfs"
	RewardLostJobsTransient   = "lost_jobs_transient"
	RewardOSSPairsDown        = "oss_pairs_down_time_avg"
)

// ErrBadConfig reports an invalid cluster configuration.
var ErrBadConfig = errors.New("abe: invalid configuration")

// ErrMissingReward reports a study that lacks one of the reward variables the
// derived measures are built from — a reward-wiring typo that would otherwise
// surface as silent NaN availabilities.
var ErrMissingReward = errors.New("abe: required reward missing from study")

// OSSConfig parameterizes the metadata/file-server (OSS) fail-over pairs.
type OSSConfig struct {
	// HWMTBFHours is the per-server hardware MTBF. Table 5's "1-2 hardware
	// failures per 720 hours" is read per fail-over pair, i.e. ~0.5-1 per
	// month per server.
	HWMTBFHours float64
	// HWRepairLoHours/HWRepairHiHours bound hardware repair (12-36 h).
	HWRepairLoHours float64
	HWRepairHiHours float64
	// SWMTBFHours is the per-server software-failure MTBF.
	SWMTBFHours float64
	// SWRepairLoHours/SWRepairHiHours bound software repair (2-6 h, fsck).
	SWRepairLoHours float64
	SWRepairHiHours float64
	// PropagationProb is the correlated-failure probability p.
	PropagationProb float64
	// SpareOSS enables the standby-spare OSS design alternative.
	SpareOSS bool
	// SpareActivationHours is the state-transfer time onto the spare.
	SpareActivationHours float64
	// ExponentialRepairs draws the hardware and software repair times from
	// exponentials matching the uniform windows' means instead of the
	// uniforms themselves — the memoryless regime required for lumped OSS
	// pairs (Table 5 reports only rates for these processes).
	ExponentialRepairs bool
}

// Validate checks the OSS parameters.
func (c OSSConfig) Validate() error {
	if !(c.HWMTBFHours > 0) || !(c.SWMTBFHours > 0) {
		return fmt.Errorf("%w: OSS MTBFs %+v", ErrBadConfig, c)
	}
	if !(c.HWRepairLoHours > 0) || c.HWRepairHiHours < c.HWRepairLoHours ||
		!(c.SWRepairLoHours > 0) || c.SWRepairHiHours < c.SWRepairLoHours {
		return fmt.Errorf("%w: OSS repair ranges %+v", ErrBadConfig, c)
	}
	if c.PropagationProb < 0 || c.PropagationProb > 1 {
		return fmt.Errorf("%w: propagation probability %v", ErrBadConfig, c.PropagationProb)
	}
	if c.SpareOSS && !(c.SpareActivationHours > 0) {
		return fmt.Errorf("%w: spare OSS without activation time", ErrBadConfig)
	}
	return nil
}

// InfrastructureConfig parameterizes the shared, scale-independent parts of
// the CFS: the SAN fabric between the OSSes and the DDN units and the
// cluster-wide file-system software. Outages of these components affect the
// whole CFS regardless of how many file servers are deployed (Table 1's
// network / file-system / batch outages).
type InfrastructureConfig struct {
	// FabricMTBFHours is the mean time between outages of the OSS-DDN
	// network fabric and other shared components.
	FabricMTBFHours float64
	// FabricRepairLoHours/FabricRepairHiHours bound the repair time.
	FabricRepairLoHours float64
	FabricRepairHiHours float64
	// ExponentialRepair replaces the uniform fabric repair window with an
	// exponential of the same mean — part of the fully memoryless regime
	// WithExponentialForms selects.
	ExponentialRepair bool
	// ErlangRepairStages, when >= 2, draws the fabric repair from an Erlang
	// with this many exponential stages and the same mean as the configured
	// window — the paper's multi-stage repair shape (diagnose, dispatch, fix)
	// with a realistic low variance, unlike the single exponential. It takes
	// precedence over ExponentialRepair and over the uniform window. Erlang
	// delays are non-memoryless as written but carry an exact phase-type
	// form, so the certificate tier certifies such configurations after
	// san.ExpandPhases instead of refusing them.
	ErlangRepairStages int
}

// Validate checks the infrastructure parameters.
func (c InfrastructureConfig) Validate() error {
	if !(c.FabricMTBFHours > 0) || !(c.FabricRepairLoHours > 0) || c.FabricRepairHiHours < c.FabricRepairLoHours {
		return fmt.Errorf("%w: infrastructure %+v", ErrBadConfig, c)
	}
	if c.ErlangRepairStages < 0 || c.ErlangRepairStages == 1 {
		return fmt.Errorf("%w: ErlangRepairStages must be 0 (off) or >= 2, got %d", ErrBadConfig, c.ErlangRepairStages)
	}
	return nil
}

// WorkloadConfig parameterizes the CLIENT submodel: the compute-node job
// stream and the transient errors of the COTS network between the compute
// nodes and the CFS.
type WorkloadConfig struct {
	// ComputeNodes is the number of compute nodes (1200 for ABE).
	ComputeNodes int
	// JobsPerHour is the job submission rate (12-15 per hour, Table 5).
	JobsPerHour float64
	// TransientEventsPerHour is the rate of transient network-error events
	// at the reference (ABE) scale; it is scaled with the number of
	// OSS-client network paths when the system grows.
	TransientEventsPerHour float64
	// TransientOutageLoHours/TransientOutageHiHours bound the short
	// unavailability each transient event induces.
	TransientOutageLoHours float64
	TransientOutageHiHours float64
	// JobsKilledPerTransient is the expected number of running jobs killed
	// by one transient event (calibrated to Table 3).
	JobsKilledPerTransient float64
	// JobCFSExposure is the fraction of jobs arriving during a CFS outage
	// that actually fail (the batch system holds the rest).
	JobCFSExposure float64
	// ExponentialOutages replaces the uniform transient-outage window with
	// an exponential of the same mean and keeps the on-off source form even
	// under lumping (the impulse-only collapse draws a non-memoryless
	// renewal). With every other distribution already exponential this makes
	// the composed model a CTMC the statespace certificate tier can solve
	// exactly. It is a separate opt-in from WithExponentialForms because the
	// on-off window re-adds event traffic the impulse-only collapse exists
	// to remove.
	ExponentialOutages bool
}

// Validate checks the workload parameters.
func (c WorkloadConfig) Validate() error {
	if c.ComputeNodes < 1 || !(c.JobsPerHour > 0) {
		return fmt.Errorf("%w: workload %+v", ErrBadConfig, c)
	}
	if !(c.TransientEventsPerHour > 0) || !(c.TransientOutageLoHours > 0) ||
		c.TransientOutageHiHours < c.TransientOutageLoHours {
		return fmt.Errorf("%w: transient parameters %+v", ErrBadConfig, c)
	}
	if c.JobsKilledPerTransient < 0 || c.JobCFSExposure < 0 || c.JobCFSExposure > 1 {
		return fmt.Errorf("%w: job failure parameters %+v", ErrBadConfig, c)
	}
	return nil
}

// Config is the full configuration of the composed CFS model.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// ScratchOSSPairs is the number of fail-over pairs serving /cfs/scratch
	// (8 on ABE, scaled up to 80 for petascale).
	ScratchOSSPairs int
	// MetadataOSSPairs is the number of metadata server pairs (1 on ABE).
	MetadataOSSPairs int
	// OSS holds the file-server failure/repair parameters.
	OSS OSSConfig
	// Storage describes the DDN units, RAID tiers, and disks.
	Storage raid.StorageConfig
	// Infrastructure describes the shared SAN fabric.
	Infrastructure InfrastructureConfig
	// Workload describes the client job stream and transient errors.
	Workload WorkloadConfig
	// Lumped opts Build into the symmetry-aware lumped representation: every
	// replicated family whose distributions are exponential (OSS fail-over
	// pairs with ExponentialRepairs and no spare, RAID controller pairs with
	// exponential repair, RAID tiers with shape-1 disks and exponential
	// replacement) is composed as a counted population instead of being
	// expanded per component, and the client transient source collapses to
	// its impulse-only form. Exact under strong lumpability; families whose
	// distributions are not memoryless (Weibull-aged disks, uniform repair
	// windows, deterministic spare activation) keep their flat expansion.
	Lumped bool
}

// ABE returns the configuration of the ABE cluster as described in
// Section 3 of the paper and calibrated against its log analysis:
// 1200 compute nodes, 8 scratch OSS pairs plus 1 metadata pair, 2 DDN units
// (480 disks, 96 TB), Weibull(0.7) disks with 300,000 h MTBF, and failure/
// repair rates from Table 5.
func ABE() Config {
	return Config{
		Name:             "ABE",
		ScratchOSSPairs:  8,
		MetadataOSSPairs: 1,
		OSS: OSSConfig{
			HWMTBFHours:          1440, // 0.5 failures/month per server => 1/month per pair
			HWRepairLoHours:      12,
			HWRepairHiHours:      36,
			SWMTBFHours:          1440,
			SWRepairLoHours:      2,
			SWRepairHiHours:      6,
			PropagationProb:      0.02,
			SpareOSS:             false,
			SpareActivationHours: 8,
		},
		Storage: raid.ABEStorage(),
		Infrastructure: InfrastructureConfig{
			FabricMTBFHours:     584, // ~15 shared outages per year (Table 1 pace)
			FabricRepairLoHours: 8,
			FabricRepairHiHours: 16,
		},
		Workload: WorkloadConfig{
			ComputeNodes:           1200,
			JobsPerHour:            12.85, // 44085 jobs over the 143-day log window
			TransientEventsPerHour: 0.12,
			TransientOutageLoHours: 0.05, // 3 minutes
			TransientOutageHiHours: 0.20, // 12 minutes
			JobsKilledPerTransient: 3.0,
			JobCFSExposure:         0.15,
		},
	}
}

// Petascale returns the Blue Waters-class configuration the paper scales to:
// roughly ten times the ABE I/O subsystem (80 scratch OSS pairs, 20 DDN
// units, 4800 disks) serving 32,000 compute nodes, with an (8+3) upgrade
// left to the caller (see WithGeometry).
func Petascale() Config {
	cfg := ABE().ScaledBy(10)
	cfg.Name = "Petascale"
	cfg.Workload.ComputeNodes = 32000
	return cfg
}

// MiniExponential returns the smallest fully memoryless configuration: one
// scratch and one metadata OSS pair, a single DDN unit with one (2+1) RAID
// tier, exponential forms everywhere (including the fabric repair and the
// transient-outage window), and lumping enabled. Every family certifies
// under the statespace tier, so the whole composed model is a CTMC small
// enough for exact uniformization — the cross-check point where analytic
// answers are validated against simulation confidence intervals. The
// transient-outage window is widened (mean 1.25 h instead of 7.5 min) to
// keep the uniformization constant small; the model is a solver-validation
// configuration, not a calibrated ABE point.
func MiniExponential() Config {
	cfg := ABE().WithExponentialForms().WithLumping(true)
	cfg.Name = "ABE mini (exponential)"
	cfg.ScratchOSSPairs = 1
	cfg.MetadataOSSPairs = 1
	cfg.Storage.DDNUnits = 1
	cfg.Storage.TiersPerDDN = 1
	cfg.Storage.Geometry = raid.TierGeometry{Data: 2, Parity: 1}
	// Disks fail and are replaced far faster than the calibrated ABE point:
	// concurrent-failure storage outages then show up within a 60-replication
	// year, so the simulated cross-check interval has nonzero width for the
	// analytic answer to land in (a 300000 h MTBF tier never loses two of
	// three disks at once in a simulated year).
	cfg.Storage.Disk.MTBFHours = 1000
	cfg.Storage.Disk.ReplaceHours = 48
	cfg.Workload.ExponentialOutages = true
	cfg.Workload.TransientOutageLoHours = 0.5
	cfg.Workload.TransientOutageHiHours = 2.0
	return cfg
}

// MiniErlang is MiniExponential with the shared-fabric repair drawn from a
// three-stage Erlang of the same mean instead of a single exponential — the
// paper's multi-stage repair shape. The Erlang delay is non-memoryless as
// written, so the certificate tier used to refuse this configuration
// (`non-memoryless`) and fall back to simulation; san.ExpandPhases rewrites
// the repair into three exponential phases exactly, and the configuration is
// now certified after expansion and answered analytically, with the
// expansion evidence recorded in the solver certificate. It is the
// cross-check point where the expanded analytic answer is validated against
// forced-simulation confidence intervals.
func MiniErlang() Config {
	cfg := MiniExponential()
	cfg.Name = "ABE mini (Erlang repair)"
	cfg.Infrastructure.ErlangRepairStages = 3
	return cfg
}

// MiniWeibull is MiniExponential with the disk lifetimes drawn from the
// wear-out Weibull (shape 1.5) of the same MTBF instead of an exponential —
// a delay with no exact finite phase-type form. The certificate tier refuses
// this configuration as built (`non-memoryless`) and exact expansion cannot
// fix it (`non-expandable`); only the certified approximate fitting tier
// (san.FitPhases, opted into via san.Options.PHFitTolerance) answers it
// analytically, on a moment-matched phase-type surrogate with a
// machine-checked CDF distance bound per disk. It is the cross-check point
// where the approximate analytic answer is validated against
// forced-simulation confidence intervals widened by the certified bound.
// Note the Weibull disks defeat lumping, so the point evaluates flat.
func MiniWeibull() Config {
	cfg := MiniExponential()
	cfg.Name = "ABE mini (Weibull disks)"
	cfg.Storage.Disk.ShapeBeta = 1.5
	return cfg
}

// ScaledBy returns a copy of the configuration with the I/O subsystem scaled
// by the given factor: the number of scratch OSS pairs and DDN units grows
// proportionally, compute nodes grow proportionally, and the transient-error
// rate grows with the number of OSS-client network paths. The metadata
// server count and the shared fabric stay fixed, as in the paper's scaling
// study.
func (c Config) ScaledBy(factor float64) Config {
	if factor <= 0 {
		factor = 1
	}
	out := c
	out.Name = fmt.Sprintf("%s x%.2g", c.Name, factor)
	out.ScratchOSSPairs = int(math.Round(float64(c.ScratchOSSPairs) * factor))
	if out.ScratchOSSPairs < 1 {
		out.ScratchOSSPairs = 1
	}
	out.Storage.DDNUnits = int(math.Round(float64(c.Storage.DDNUnits) * factor))
	if out.Storage.DDNUnits < 1 {
		out.Storage.DDNUnits = 1
	}
	out.Workload.ComputeNodes = int(math.Round(float64(c.Workload.ComputeNodes) * factor))
	if out.Workload.ComputeNodes < 1 {
		out.Workload.ComputeNodes = 1
	}
	out.Workload.TransientEventsPerHour = c.Workload.TransientEventsPerHour * factor
	return out
}

// WithSpareOSS returns a copy of the configuration with the standby-spare
// OSS design alternative enabled or disabled.
func (c Config) WithSpareOSS(enabled bool) Config {
	out := c
	out.OSS.SpareOSS = enabled
	return out
}

// WithGeometry returns a copy of the configuration using the given RAID
// geometry (e.g. 8+3 for Blue Waters).
func (c Config) WithGeometry(g raid.TierGeometry) Config {
	out := c
	out.Storage.Geometry = g
	return out
}

// WithLumping returns a copy of the configuration with the lumped
// representation enabled or disabled. Lumping changes only how the model is
// represented, never which distributions it draws from: families whose
// delays are not exponential keep their flat expansion.
func (c Config) WithLumping(enabled bool) Config {
	out := c
	out.Lumped = enabled
	return out
}

// WithExponentialForms returns a copy of the configuration with every
// repair/lifetime distribution replaced by the exponential of the same mean:
// shape-1 disks with exponential replacement, exponential OSS and controller
// repairs. This is the fully memoryless variant of the model — the regime
// Table 5's rate parameters describe directly, where the closed-form
// exponential availability baselines are exact and every replicated family
// admits lumping.
func (c Config) WithExponentialForms() Config {
	out := c
	out.OSS.ExponentialRepairs = true
	out.Storage.Disk.ShapeBeta = 1
	out.Storage.Disk.ExponentialReplace = true
	out.Storage.Controller.ExponentialRepair = true
	out.Infrastructure.ExponentialRepair = true
	return out
}

// WithDisk returns a copy of the configuration with the given disk failure
// parameters (Weibull shape, MTBF via AFR, replacement time) — the tuple the
// Figure 2/3 series are labeled with.
func (c Config) WithDisk(shape, afr, replaceHours float64) (Config, error) {
	mtbf, err := dist.AFRToMTBFHours(afr)
	if err != nil {
		return Config{}, err
	}
	out := c
	out.Storage.Disk.ShapeBeta = shape
	out.Storage.Disk.MTBFHours = mtbf
	out.Storage.Disk.ReplaceHours = replaceHours
	return out, nil
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if c.ScratchOSSPairs < 1 || c.MetadataOSSPairs < 1 {
		return fmt.Errorf("%w: OSS pair counts %d/%d", ErrBadConfig, c.ScratchOSSPairs, c.MetadataOSSPairs)
	}
	if err := c.OSS.Validate(); err != nil {
		return err
	}
	if err := c.Storage.Validate(); err != nil {
		return err
	}
	if err := c.Infrastructure.Validate(); err != nil {
		return err
	}
	return c.Workload.Validate()
}

// TotalOSSPairs returns the number of modeled OSS fail-over pairs.
func (c Config) TotalOSSPairs() int { return c.ScratchOSSPairs + c.MetadataOSSPairs }

// ---------------------------------------------------------------------------
// Model construction
// ---------------------------------------------------------------------------

// ModelPlaces exposes the shared state of the composed model for rewards and
// tests.
type ModelPlaces struct {
	// Storage is the DDN/RAID submodel state.
	Storage *raid.StoragePlaces
	// OSSPairsOut counts OSS fail-over pairs currently causing an outage.
	OSSPairsOut *san.Place
	// SharedOut counts shared-infrastructure components currently failed.
	SharedOut *san.Place
	// Transient is the client-side transient error source.
	Transient *cluster.TransientPlaces
	// Config echoes the configuration the model was built from.
	Config Config
}

// CFSOperational reports whether the cluster file system can serve clients
// in marking m: every OSS pair, the shared fabric, and the storage subsystem
// must be operational (the paper's CFS availability definition).
func (mp *ModelPlaces) CFSOperational(m san.MarkingReader) bool {
	return m.Tokens(mp.OSSPairsOut) == 0 &&
		m.Tokens(mp.SharedOut) == 0 &&
		mp.Storage.Operational(m)
}

// Build adds the full composed CFS model for cfg to m and returns its shared
// places. The composition mirrors Figure 1: CLIENT joined with CFS_UNIT,
// which is itself the join of OSS, OSS_SAN_NW, SAN, and the replicated
// DDN_UNITS.
func Build(m *san.Model, cfg Config) (*ModelPlaces, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mp := &ModelPlaces{Config: cfg}
	var err error
	mp.OSSPairsOut, err = m.AddPlaceErr("cfs/oss_pairs_out", 0)
	if err != nil {
		return nil, err
	}
	mp.SharedOut, err = m.AddPlaceErr("cfs/shared_out", 0)
	if err != nil {
		return nil, err
	}

	pairCfg, err := cfg.pairConfig()
	if err != nil {
		return nil, err
	}

	// OSS: metadata pairs and scratch file-server pairs. With lumping on and
	// a fully exponential pair (ExponentialRepairs, no spare), each group is
	// one counted population; otherwise every pair expands flat.
	buildPairs := func(prefix string, n int) error {
		fam := pairCfg.Lumpability()
		fam.Family = prefix
		fam.Count = n
		fam.Lumped = cfg.Lumped && fam.Lumpable
		m.DeclareFamily(fam)
		if cfg.Lumped && pairCfg.Lumpable() {
			_, err := cluster.BuildFailoverPairsLumped(m, prefix, n, pairCfg, mp.OSSPairsOut)
			return err
		}
		return san.Replicate(m, prefix, n, func(m *san.Model, pairPrefix string, _ int) error {
			_, err := cluster.BuildFailoverPair(m, pairPrefix, pairCfg, mp.OSSPairsOut)
			return err
		})
	}
	if err := buildPairs("cfs/oss/metadata", cfg.MetadataOSSPairs); err != nil {
		return nil, err
	}
	if err := buildPairs("cfs/oss/scratch", cfg.ScratchOSSPairs); err != nil {
		return nil, err
	}

	// OSS_SAN_NW / SAN: shared fabric between the OSSes and the DDN units.
	var fabricRepair dist.Distribution
	if stages := cfg.Infrastructure.ErlangRepairStages; stages >= 2 {
		fabricRepair, err = cluster.ErlangRepair(stages,
			cfg.Infrastructure.FabricRepairLoHours, cfg.Infrastructure.FabricRepairHiHours)
	} else if cfg.Infrastructure.ExponentialRepair {
		fabricRepair, err = dist.NewExponentialFromMean(
			(cfg.Infrastructure.FabricRepairLoHours + cfg.Infrastructure.FabricRepairHiHours) / 2)
	} else {
		fabricRepair, err = dist.NewUniform(cfg.Infrastructure.FabricRepairLoHours, cfg.Infrastructure.FabricRepairHiHours)
	}
	if err != nil {
		return nil, err
	}
	err = cluster.BuildRepairable(m, "cfs/oss_san_nw", cluster.RepairableConfig{
		MTBFHours: cfg.Infrastructure.FabricMTBFHours,
		Repair:    fabricRepair,
	}, mp.SharedOut)
	if err != nil {
		return nil, err
	}

	// DDN_UNITS: controllers and RAID6 tiers of disks. Config.Lumped opts
	// the storage families into their lumped forms where exact.
	mp.Storage, err = raid.BuildStorage(m, "cfs/ddn_units", cfg.storageConfig())
	if err != nil {
		return nil, err
	}

	// CLIENT: transient errors of the compute-node <-> CFS network. Nothing
	// reads the transient window place (transient errors kill jobs via
	// impulses but do not enter the CFS availability predicate), so the
	// lumped form collapses the on/off source to one impulse-carrying
	// renewal activity with the identical inter-event law.
	transientCfg := cluster.TransientConfig{
		EventsPerHour:      cfg.Workload.TransientEventsPerHour,
		OutageLoHours:      cfg.Workload.TransientOutageLoHours,
		OutageHiHours:      cfg.Workload.TransientOutageHiHours,
		ExponentialOutages: cfg.Workload.ExponentialOutages,
	}
	m.DeclareFamily(transientVerdict(cfg))
	if cfg.Lumped && !cfg.Workload.ExponentialOutages {
		mp.Transient, err = cluster.BuildTransientImpulseSource(m, "client/network", transientCfg)
	} else {
		mp.Transient, err = cluster.BuildTransientSource(m, "client/network", transientCfg)
	}
	if err != nil {
		return nil, err
	}
	return mp, nil
}

// transientVerdict is the declared verdict of the client transient source:
// not a replica population, but its impulse-only collapse (enabled whenever
// Config.Lumped is set) is exact for the same reason lumping is — no reward
// or enabling condition reads the on/off window place, so replacing the
// two-activity on/off source with one impulse-carrying renewal activity
// preserves every measure. Under ExponentialOutages the on-off form is kept
// even when lumping (the collapse's renewal interval is a non-memoryless
// sum, which would forfeit the solver certificate).
func transientVerdict(cfg Config) san.LumpabilityVerdict {
	return san.LumpabilityVerdict{
		Family:   "client/network",
		Count:    1,
		Lumped:   cfg.Lumped && !cfg.Workload.ExponentialOutages,
		Lumpable: true,
	}
}

// pairConfig materializes the OSS fail-over-pair configuration, choosing
// uniform or exponential repair distributions per OSSConfig.
func (c Config) pairConfig() (cluster.PairConfig, error) {
	var hwRepair, swRepair dist.Distribution
	var err error
	if c.OSS.ExponentialRepairs {
		hwRepair, err = dist.NewExponentialFromMean(c.OSS.HWRepairLoHours + (c.OSS.HWRepairHiHours-c.OSS.HWRepairLoHours)/2)
		if err != nil {
			return cluster.PairConfig{}, err
		}
		swRepair, err = dist.NewExponentialFromMean(c.OSS.SWRepairLoHours + (c.OSS.SWRepairHiHours-c.OSS.SWRepairLoHours)/2)
		if err != nil {
			return cluster.PairConfig{}, err
		}
	} else {
		hwRepair, err = dist.NewUniform(c.OSS.HWRepairLoHours, c.OSS.HWRepairHiHours)
		if err != nil {
			return cluster.PairConfig{}, err
		}
		swRepair, err = dist.NewUniform(c.OSS.SWRepairLoHours, c.OSS.SWRepairHiHours)
		if err != nil {
			return cluster.PairConfig{}, err
		}
	}
	return cluster.PairConfig{
		HWMTBFHours:          c.OSS.HWMTBFHours,
		HWRepair:             hwRepair,
		SWMTBFHours:          c.OSS.SWMTBFHours,
		SWRepair:             swRepair,
		PropagationProb:      c.OSS.PropagationProb,
		Spare:                c.OSS.SpareOSS,
		SpareActivationHours: c.OSS.SpareActivationHours,
	}, nil
}

// LumpsOSSPairs reports whether Build will compose the OSS fail-over pairs
// in lumped form for this configuration. It derives the answer from the
// same cluster.PairConfig.Lumpable check Build itself applies, so the
// predicate cannot drift from the build path.
func (c Config) LumpsOSSPairs() bool {
	if !c.Lumped {
		return false
	}
	pc, err := c.pairConfig()
	return err == nil && pc.Lumpable()
}

// LumpabilityVerdicts returns the derived lumpability verdicts of the four
// replicated (or collapsible) families of the composed model, in a fixed
// order: OSS fail-over pairs, RAID controller pairs, RAID tiers, and the
// client transient source. Each verdict carries the reasons lumping fails
// when it does; the boolean predicates (LumpsOSSPairs and the raid Lumps*
// methods) are projections of the same derivations, so the two views cannot
// drift apart.
func (c Config) LumpabilityVerdicts() []san.LumpabilityVerdict {
	oss := san.LumpabilityVerdict{Family: "oss_pairs", Count: c.TotalOSSPairs()}
	if pc, err := c.pairConfig(); err != nil {
		oss.Reasons = []string{san.ReasonNonExponential + ": pair configuration invalid: " + err.Error()}
	} else {
		v := pc.Lumpability()
		oss.Lumpable = v.Lumpable
		oss.Reasons = v.Reasons
	}
	oss.Lumped = c.Lumped && oss.Lumpable
	s := c.storageConfig()
	return []san.LumpabilityVerdict{oss, s.ControllerLumpability(), s.TierLumpability(), transientVerdict(c)}
}

// LumpsAnything reports whether Build composes any part of the model in
// lumped form — any of the storage families, the OSS pairs, or the
// impulse-only transient source (which lumps whenever the model-level
// opt-in is set). It is the condition under which the built model differs
// from FlatConfig's expansion.
func (c Config) LumpsAnything() bool {
	s := c.storageConfig()
	return c.Lumped || s.LumpsControllers() || s.LumpsTiers()
}

// FlatConfig returns the configuration with every lumping opt-in cleared —
// the exact flat expansion ModelStats compares against. Distributions are
// untouched.
func (c Config) FlatConfig() Config {
	out := c
	out.Lumped = false
	out.Storage.Lumped = false
	return out
}

// storageConfig returns the storage configuration Build hands to
// raid.BuildStorage, with the model-level lumping opt-in propagated.
func (c Config) storageConfig() raid.StorageConfig {
	out := c.Storage
	out.Lumped = out.Lumped || c.Lumped
	return out
}

// Rewards returns the reward variables estimated on the composed model: the
// two availabilities, the disk replacement count, the expected job losses
// (used to derive the cluster utility CU), and the time-averaged number of
// OSS pairs down.
func (mp *ModelPlaces) Rewards() []san.RewardVariable {
	cfg := mp.Config
	lostPerHourWhenDown := cfg.Workload.JobsPerHour * cfg.Workload.JobCFSExposure
	rewards := []san.RewardVariable{
		mp.Storage.AvailabilityReward(RewardStorageAvailability),
		san.UpFraction(RewardCFSAvailability, mp.CFSOperational),
		mp.Storage.ReplacementCountReward(RewardDiskReplacements),
		{
			Name: RewardLostJobsCFS,
			Mode: san.Accumulated,
			Rate: func(m san.MarkingReader) float64 {
				if mp.CFSOperational(m) {
					return 0
				}
				return lostPerHourWhenDown
			},
		},
		{
			Name: RewardLostJobsTransient,
			Mode: san.Accumulated,
			Impulses: map[string]san.ImpulseFunc{
				mp.Transient.EventActivity: func(san.MarkingReader) float64 {
					return cfg.Workload.JobsKilledPerTransient
				},
			},
		},
		san.TokenTimeAverage(RewardOSSPairsDown, mp.OSSPairsOut),
	}
	return rewards
}

// CompositionTree returns the replicate/join composition tree of the model
// (the paper's Figure 1) for the given configuration. Replicate nodes that
// Build composes in lumped (counted) form are annotated "[lumped]"; the
// rest expand flat.
func CompositionTree(cfg Config) *san.CompositionNode {
	lumpMark := func(lumped bool) string {
		if lumped {
			return "[lumped]"
		}
		return ""
	}
	storage := cfg.storageConfig()
	return san.NewJoinNode("CLUSTER",
		san.NewAtomicNode("CLIENT"),
		san.NewJoinNode("CFS_UNIT",
			san.NewReplicateNode("OSS", cfg.TotalOSSPairs(), san.NewAtomicNode("OSS_PAIR")).
				Annotate(lumpMark(cfg.LumpsOSSPairs())),
			san.NewAtomicNode("OSS_SAN_NW"),
			san.NewAtomicNode("SAN"),
			san.NewReplicateNode("DDN_UNITS", cfg.Storage.DDNUnits,
				san.NewJoinNode("DDN",
					san.NewAtomicNode("RAID_CONTROLLER").
						Annotate(lumpMark(storage.LumpsControllers())),
					san.NewReplicateNode("RAID6_TIERS", cfg.Storage.TiersPerDDN, san.NewAtomicNode("RAID6_TIER")).
						Annotate(lumpMark(storage.LumpsTiers())),
				),
			),
		),
	)
}

// ModelStats is the model_stats view of a configuration: the size of the
// model Build composes for it, next to the size of its flat expansion. For
// a non-lumped configuration the two coincide.
type ModelStats struct {
	// Places and Activities are the size of the model as built for the
	// configuration (lumped where the configuration opts in and the
	// distributions allow).
	Places     int
	Activities int
	// FlatPlaces and FlatActivities are the size of the flat expansion of
	// the same configuration.
	FlatPlaces     int
	FlatActivities int
	// Lumped reports whether any family was composed in lumped form.
	Lumped bool
}

// ModelStats builds the configuration's model (and, when lumping changed
// anything, its flat expansion via FlatConfig) and returns the size
// comparison.
func (c Config) ModelStats() (ModelStats, error) {
	build := func(cfg Config) (san.ModelStats, error) {
		model := san.NewModel(cfg.Name)
		if _, err := Build(model, cfg); err != nil {
			return san.ModelStats{}, err
		}
		return model.Stats(), nil
	}
	built, err := build(c)
	if err != nil {
		return ModelStats{}, err
	}
	out := ModelStats{
		Places: built.Places, Activities: built.Activities,
		FlatPlaces: built.Places, FlatActivities: built.Activities,
		Lumped: c.LumpsAnything(),
	}
	if out.Lumped {
		flat, err := build(c.FlatConfig())
		if err != nil {
			return ModelStats{}, err
		}
		out.FlatPlaces = flat.Places
		out.FlatActivities = flat.Activities
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

// Measures are the derived measures of Section 4.2 for one configuration.
type Measures struct {
	// Config echoes the evaluated configuration.
	Config Config
	// StorageAvailability is the fraction of time all DDN units and tiers
	// are operational.
	StorageAvailability float64
	// CFSAvailability is the fraction of time the whole CFS can serve
	// clients.
	CFSAvailability float64
	// ClusterUtility is CU = 1 - failedJobs/totalJobs.
	ClusterUtility float64
	// DiskReplacementsPerWeek is the expected number of disks replaced per
	// week to sustain availability.
	DiskReplacementsPerWeek float64
	// LostJobsPerYear splits the expected annual job losses by cause.
	LostJobsTransientPerYear float64
	LostJobsCFSPerYear       float64
	// Intervals holds the confidence intervals of the reward means, in the
	// same units as the headline fields above: the disk-replacement interval
	// is per week and the lost-job intervals are per year, matching
	// DiskReplacementsPerWeek and LostJobs*PerYear; the availability
	// intervals are dimensionless fractions.
	Intervals map[string]stats.Interval
	// MissionHours is the mission time each replication covered.
	MissionHours float64
	// Replications is the number of replications used.
	Replications int
}

// Evaluate builds the composed model for cfg, runs a replicated terminating
// simulation, and derives the paper's measures.
func Evaluate(cfg Config, opts san.Options) (Measures, error) {
	model := san.NewModel(cfg.Name)
	mp, err := Build(model, cfg)
	if err != nil {
		return Measures{}, err
	}
	study, err := san.RunReplications(model, mp.Rewards(), opts)
	if err != nil {
		return Measures{}, err
	}
	return MeasuresFromStudy(cfg, study)
}

// MeasuresFromStudy derives the paper's measures from a completed study of
// the composed model for cfg. Evaluate uses it after running the replications
// itself; sweep engines that schedule the replications of many configurations
// over one shared worker pool reduce each configuration's results into a
// san.StudyResult and derive the measures here.
func MeasuresFromStudy(cfg Config, study *san.StudyResult) (Measures, error) {
	mission := study.Options.Mission
	if !(mission > 0) || math.IsInf(mission, 0) {
		// A hand-assembled study that skipped san.Options.WithDefaults would
		// otherwise turn the per-week/per-year unit scales into Inf/NaN.
		return Measures{}, fmt.Errorf("abe: study mission %v must be a positive finite duration", mission)
	}
	totalJobs := cfg.Workload.JobsPerHour * mission
	if !(totalJobs > 0) {
		// Guaranteed by Config.Validate for Evaluate/sweep callers; a
		// hand-assembled study with an unvalidated config would otherwise
		// publish ClusterUtility = 1 - 0/0 = NaN (the clamp passes NaN
		// through).
		return Measures{}, fmt.Errorf("%w: job rate %v over mission %v h yields no jobs",
			ErrBadConfig, cfg.Workload.JobsPerHour, mission)
	}
	// Require every reward the measures are built from: study.Mean returns
	// NaN for an unknown name, so a reward-wiring typo would otherwise yield
	// silent NaN availabilities.
	for _, name := range []string{
		RewardStorageAvailability, RewardCFSAvailability, RewardDiskReplacements,
		RewardLostJobsCFS, RewardLostJobsTransient,
	} {
		if _, ok := study.Summaries[name]; !ok {
			return Measures{}, fmt.Errorf("%w: %q", ErrMissingReward, name)
		}
	}
	lostTransient := study.Mean(RewardLostJobsTransient)
	lostCFS := study.Mean(RewardLostJobsCFS)
	// CU = 1 - failedJobs/totalJobs is an expectation ratio estimated from
	// finite replications, so clamp it to its mathematical range: sampling
	// noise can push the raw ratio below 0 (catastrophic short missions) or
	// above 1 (impulse accounting quirks at tiny job counts).
	cu := 1 - (lostTransient+lostCFS)/totalJobs
	cu = math.Min(1, math.Max(0, cu))
	// The same mission-total -> per-week/per-year factors rescale both the
	// headline fields and (below) their confidence intervals, keeping the
	// interval center bit-identical to the headline value.
	weekScale := dist.HoursPerWeek / mission
	yearScale := dist.HoursPerYear / mission
	m := Measures{
		Config:                   cfg,
		StorageAvailability:      study.Mean(RewardStorageAvailability),
		CFSAvailability:          study.Mean(RewardCFSAvailability),
		ClusterUtility:           cu,
		DiskReplacementsPerWeek:  study.Mean(RewardDiskReplacements) * weekScale,
		LostJobsTransientPerYear: lostTransient * yearScale,
		LostJobsCFSPerYear:       lostCFS * yearScale,
		Intervals:                make(map[string]stats.Interval, len(study.Summaries)),
		MissionHours:             mission,
		Replications:             study.Options.Replications,
	}
	// The headline rate measures are rescaled from mission totals to
	// per-week/per-year units; their confidence intervals must be scaled by
	// the same factors or the reported uncertainty is in the wrong units.
	unitScale := map[string]float64{
		RewardDiskReplacements:  weekScale,
		RewardLostJobsCFS:       yearScale,
		RewardLostJobsTransient: yearScale,
	}
	// Sorted, so the first interval to fail names the error deterministically.
	for _, name := range slices.Sorted(maps.Keys(study.Summaries)) {
		ci, err := study.Interval(name)
		if err != nil {
			return Measures{}, fmt.Errorf("abe: interval for %q: %w", name, err)
		}
		if f, ok := unitScale[name]; ok {
			ci.Mean *= f
			ci.HalfWidth *= f
		}
		m.Intervals[name] = ci
	}
	return m, nil
}

// String renders the headline measures.
func (m Measures) String() string {
	return fmt.Sprintf("%s: storage=%.5f cfs=%.4f cu=%.4f disks/week=%.2f",
		m.Config.Name, m.StorageAvailability, m.CFSAvailability, m.ClusterUtility, m.DiskReplacementsPerWeek)
}
