// autotune: the accuracy-driven tuning loop of Figure 2 — walk a
// recipe ladder, then greedily fall individual operators back to FP32
// until the accuracy goal is met.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/quant"
)

func main() {
	net, err := models.Build("mobilenet_v3") // a hard model for FP8/INT8
	if err != nil {
		log.Fatal(err)
	}
	// One split serves every trial: row-independent candidates forward
	// only its packed kept samples, packed on the first such trial.
	split := evalx.NewSplit(evalx.ComputeReference(net))
	eval := func() float64 { return split.Accuracy(net) }

	res := quant.AutoTune(net, net.Data, eval, 1.0,
		quant.DefaultCandidates(net.IsCNN()), 0.01, 24)

	fmt.Printf("tuning %s: %d trials\n\n", net.Meta.Name, len(res.Trials))
	for i, t := range res.Trials {
		fb := ""
		if len(t.Recipe.Fallback) > 0 {
			fb = fmt.Sprintf(" (+%d FP32 fallbacks)", len(t.Recipe.Fallback))
		}
		fmt.Printf("  trial %2d: %-14s%-24s acc=%.4f loss=%5.2f%% pass=%v\n",
			i+1, t.Recipe.Name(), fb, t.Accuracy, t.RelLoss*100, t.Passed)
	}
	if res.Passed {
		fmt.Printf("\nselected: %s with %d fallback ops, accuracy %.4f\n",
			res.Best.Name(), len(res.Best.Fallback), res.Accuracy)
	} else {
		fmt.Printf("\nno configuration met the goal; best %s at %.4f\n",
			res.Best.Name(), res.Accuracy)
	}
}
