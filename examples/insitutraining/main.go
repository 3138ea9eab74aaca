// In-situ training: train a classifier entirely on the functional Trident
// hardware model — optical forward passes, LDSU-latched derivatives,
// gradient-vector passes with the bank holding Wᵀ, outer-product weight
// gradients, and equation (1) updates written back into the GST cells —
// then compare against a digital baseline and against the offline-train-
// then-map flow whose accuracy mismatch motivates the paper.
package main

import (
	"flag"
	"fmt"
	"log"

	"trident/internal/dataset"
	"trident/internal/train"
)

func main() {
	log.SetFlags(0)
	model := flag.String("model", "mlp",
		"architecture: mlp (dense stack) or branched (residual+concat mini-model on the execution graph)")
	flag.Parse()
	if *model == "branched" {
		runBranched()
		return
	}
	if *model != "mlp" {
		log.Fatalf("unknown -model %q (want mlp or branched)", *model)
	}
	data := dataset.Blobs(600, 3, 6, 0.1, 42)

	fmt.Println("== In-situ training on Trident hardware (noiseless analog) ==")
	res, err := train.RunInSitu(data, 16, 10, 0.08, 1, false)
	if err != nil {
		log.Fatal(err)
	}
	report(res)

	fmt.Println("\n== Same run with BPD shot/thermal noise enabled ==")
	noisy, err := train.RunInSitu(data, 16, 10, 0.08, 1, true)
	if err != nil {
		log.Fatal(err)
	}
	report(noisy)

	digital, err := train.DigitalBaselineAccuracy(data, 16, 10, 0.08, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndigital float baseline (same architecture): %.1f%% test accuracy\n", digital*100)

	fmt.Println("\n== Offline-train-then-map mismatch (Section I motivation) ==")
	tight := dataset.Blobs(1000, 12, 6, 0.35, 5)
	mm, err := train.RunMismatch(tight, 24, 30, 0.1, 21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  float reference          %.1f%%\n", mm.FloatAccuracy*100)
	fmt.Printf("  mapped to 8-bit GST      %.1f%%  (drop %.1f points)\n",
		mm.EightBit*100, (mm.FloatAccuracy-mm.EightBit)*100)
	fmt.Printf("  mapped to 6-bit thermal  %.1f%%  (drop %.1f points)\n",
		mm.SixBit*100, (mm.FloatAccuracy-mm.SixBit)*100)
	fmt.Println("\nTraining on the same hardware that serves inference removes this gap —")
	fmt.Println("the weights the PCM cells learn are the weights the PCM cells use.")
}

// runBranched trains the branched mini-model — stem conv, body conv,
// residual add, channel concat, GAP, linear head — end to end on the
// photonic core: every conv kernel and the classifier live in PCM banks,
// and the joins book their optical summation / wavelength-merge energy.
func runBranched() {
	data := dataset.MiniImages(160, 2, 1, 8, 8, 0.05, 42)

	fmt.Println("== Branched model (conv→conv→add→concat→GAP→dense), noiseless analog ==")
	res, err := train.RunBranched(data, 6, 0.08, false)
	if err != nil {
		log.Fatal(err)
	}
	report(res)

	fmt.Println("\n== Same run with BPD shot/thermal noise enabled ==")
	noisy, err := train.RunBranched(data, 6, 0.08, true)
	if err != nil {
		log.Fatal(err)
	}
	report(noisy)
}

func report(r *train.InSituResult) {
	fmt.Printf("  train accuracy  %.1f%%\n", r.TrainAccuracy*100)
	fmt.Printf("  test accuracy   %.1f%%\n", r.TestAccuracy*100)
	fmt.Printf("  final loss      %.4f\n", r.FinalLoss)
	fmt.Printf("  energy          %v, %.1f%% spent programming GST (cf. Table III's 83.3%%)\n",
		r.Energy, r.TuningShare*100)
}
