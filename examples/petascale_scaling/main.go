// The petascale_scaling example reproduces the paper's headline scaling
// study (Figure 4): it evaluates the ABE cluster-file-system design at its
// current scale and as it is scaled toward a petaflop-petabyte system,
// reporting storage availability, CFS availability, cluster utility, and the
// gain from a standby-spare OSS at each scale.
//
// All twelve design points (six scale factors, with and without the spare
// OSS) run as one sharded sweep over a shared worker pool — models are
// composed once per point, simulators are reused across replications, and
// the slow petascale points overlap with the fast ABE-scale ones. Every
// point shares one study seed (common random numbers), so the spare-OSS
// column is directly comparable to the base one. Pass -json to emit the
// sweep's machine-readable report instead of the text table.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/abe"
	"repro/internal/experiments"
	"repro/internal/san"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	jsonOut := flag.Bool("json", false, "emit the machine-readable sweep report instead of the text table")
	flag.Parse()

	opts := san.Options{
		Mission:      8760,
		Replications: 40,
		Seed:         2008,
	}

	factors := experiments.Figure4ScaleFactors(false)
	res, err := sweep.Run(experiments.Figure4Points(opts.Seed, factors), opts)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		out, err := res.JSON()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}

	fmt.Println("Scaling the ABE CFS design toward petascale (Figure 4 reproduction)")
	fmt.Println()
	fmt.Printf("%-8s  %-12s  %-12s  %-10s  %-12s  %-12s\n",
		"scale", "storage", "CFS avail", "CU", "CFS+spare", "disks/week")

	for i, factor := range factors {
		base := res.Points[2*i].Measures
		spare := res.Points[2*i+1].Measures
		fmt.Printf("%-8.0fx %-12.5f  %-12.4f  %-10.4f  %-12.4f  %-12.2f\n",
			factor, base.StorageAvailability, base.CFSAvailability, base.ClusterUtility,
			spare.CFSAvailability, base.DiskReplacementsPerWeek)
	}
	fmt.Printf("\n%d points, %d replications each, %d simulated events total\n",
		len(res.Points), res.Options.Replications, res.TotalEvents)

	fmt.Println()
	finding, err := spareOSSFinding(abe.Petascale(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("design recommendation:", finding)
}

// spareOSSFinding quantifies the paper's standby-spare design alternative at
// cfg: it evaluates the configuration with and without a spare OSS and
// phrases the availability gain the way the paper's conclusions do.
func spareOSSFinding(cfg abe.Config, opts san.Options) (string, error) {
	without, err := abe.Evaluate(cfg.WithSpareOSS(false), opts)
	if err != nil {
		return "", err
	}
	with, err := abe.Evaluate(cfg.WithSpareOSS(true), opts)
	if err != nil {
		return "", err
	}
	delta := with.CFSAvailability - without.CFSAvailability
	return fmt.Sprintf("a standby-spare OSS improves CFS availability by %.1f%% (%.4f -> %.4f) at %s scale",
		delta*100, without.CFSAvailability, with.CFSAvailability, cfg.Name), nil
}
