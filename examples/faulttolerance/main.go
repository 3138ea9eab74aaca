// Fault tolerance: kill a growing fraction of the GST weight cells in a
// trained network and watch in-situ training heal the damage — the
// operational payoff of Trident's unified train/inference hardware. A
// device that only runs pre-trained weights has no recovery path when PCM
// cells wear out; a device that trains on its own hardware routes around
// them.
//
// With --lifetime the example instead runs the compressed wear-out
// campaign: cells die organically of endurance exhaustion mid-training,
// the built-in self-test localizes them without oracle access, and the
// remediation scheduler refreshes, wear-levels, heals and masks to hold
// accuracy. It prints the wear/accuracy timeline.
package main

import (
	"flag"
	"fmt"
	"log"

	"trident/internal/core"
	"trident/internal/experiments"
	"trident/internal/reliability"
)

func main() {
	log.SetFlags(0)
	lifetime := flag.Bool("lifetime", false, "run the lifetime wear-out campaign (BIST + wear-leveling + self-healing)")
	seed := flag.Int64("seed", 42, "campaign seed (with --lifetime)")
	flag.Parse()
	if *lifetime {
		runLifetime(*seed)
		return
	}
	fmt.Println("== Stuck-cell injection and in-situ healing ==")
	rows, err := experiments.FaultRecovery(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s %-19s %8s %13s %14s\n", "fault rate", "kind", "clean", "after faults", "after healing")
	for _, r := range rows {
		fmt.Printf("%-11s %-19s %7.1f%% %12.1f%% %13.1f%%\n",
			fmt.Sprintf("%.0f%%", r.FaultRate*100), r.Kind,
			r.Clean*100, r.Hurt*100, r.Healed*100)
	}

	fmt.Println("\n== Anatomy of one stuck cell ==")
	pe, err := core.NewPE(core.PEConfig{Rows: 4, Cols: 4, DisableNoise: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := pe.Program([][]float64{{0.5, 0.5, 0.5, 0.5}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("programmed row 0 to 0.5; cell (0,0) reads %.3f\n", pe.Bank().Weight(0, 0))
	if err := pe.InjectFault(0, 0, core.StuckCrystalline); err != nil {
		log.Fatal(err)
	}
	if err := pe.Program([][]float64{{0.5, 0.5, 0.5, 0.5}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after stuck-crystalline fault + reprogram: cell (0,0) reads %.3f (pinned), (0,1) reads %.3f\n",
		pe.Bank().Weight(0, 0), pe.Bank().Weight(0, 1))

	fmt.Println("\n== Endurance context ==")
	fmt.Println("per-cell endurance is ~1e12 switching cycles; at the Table V training")
	fmt.Println("rates that is 55–660 years of continuous training (papertables -only endurance),")
	fmt.Println("so faults arrive slowly — and when they do, the loop above absorbs them.")
	fmt.Println("\nrun with --lifetime to watch a whole deployed life, compressed: cells")
	fmt.Println("dying of wear mid-training, the self-test finding them, the scheduler healing.")
}

// runLifetime executes the compressed wear-out campaign and prints its
// health-check timeline: each row is one scheduler check, with the oracle
// fault count alongside the scheduler's own (oracle-blind) suspect count.
func runLifetime(seed int64) {
	fmt.Println("== Lifetime wear-out campaign ==")
	res, err := reliability.RunCampaign(seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.LifetimeTable(res).String())
	fmt.Printf("baseline %.1f%% → final %.1f%%; BIST detected %d/%d wear faults (%.0f%%) with zero oracle access\n",
		res.BaselineAccuracy*100, res.FinalAccuracy*100,
		res.Detected, res.WearFaults, 100*res.DetectionRate)
	fmt.Printf("%d healing runs, %d masked rows, writes/cell mean %.0f max %d\n",
		res.Heals, res.MaskedRows, res.MeanCellWrites, res.MaxCellWrites)
}
