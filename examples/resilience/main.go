// Resilience: fusion on the simulated cluster while an information-warfare
// attack kills worker replicas mid-run. The resiliency layer detects the
// losses by heartbeat timeout, regenerates replicas at alternative nodes,
// reconfigures the communication structure, and the computation completes
// with the correct result.
//
//	go run ./examples/resilience
package main

import (
	"fmt"
	"log"

	"resilientfusion/internal/core"
	"resilientfusion/internal/failure"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/scplib"
)

func main() {
	log.SetFlags(0)

	scene, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 96, Height: 96, Bands: 48, Seed: 7,
		NoiseSigma: 6, Illumination: 0.12,
		OpenVehicles: 1, CamouflagedVehicles: 1,
		SpectralVariability: 0.12,
	})
	if err != nil {
		log.Fatal(err)
	}

	const workers = 4
	opts := core.Options{
		Workers:         workers,
		Granularity:     2,
		Threshold:       0.03,
		Replication:     2, // every worker has a shadow replica
		Regenerate:      true,
		HeartbeatPeriod: 0.5,
		FailTimeout:     2,
		RequestTimeout:  120,
	}

	// Reference: a failure-free sequential run for result validation.
	want, err := core.Sequential(scene.Cube, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Simulated 100BaseT cluster: node 0 = manager, nodes 1..4 = workers.
	x, nodes := scplib.NewCluster(workers+1, perfmodel.EffectiveWorkstationRate)
	sys := scplib.NewSimSystem(x, x.NewBus(0, 0), nodes, scplib.DefaultMsgCost())
	sys.LogTo = func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	}

	job, err := core.StartJob(sys, core.MemSource(scene.Cube), opts, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The attack: three replicas die at t=2s, including BOTH replicas of
	// worker 2 — that group must be regenerated from scratch and its
	// sub-problems reissued.
	plan := failure.Plan{Events: []failure.Event{
		failure.KillReplica(2.0, 1, 0),
		failure.KillReplica(2.0, 2, 0),
		failure.KillReplica(2.0, 2, 1),
	}}
	fmt.Println("attack plan:")
	for _, e := range plan.Events {
		fmt.Printf("  %s\n", e)
	}
	if err := plan.Arm(x, job.Runtime(), nodes); err != nil {
		log.Fatal(err)
	}

	res, err := job.Run()
	if err != nil {
		log.Fatal(err)
	}

	st := job.Runtime().Stats()
	fmt.Printf("\ncompleted in %.2f virtual seconds\n", res.Times.Total)
	fmt.Printf("failures detected:    %d\n", st.Detections)
	fmt.Printf("replicas regenerated: %d\n", st.Regenerations)
	fmt.Printf("view changes:         %d\n", st.ViewChanges)
	fmt.Printf("manager reissues:     %d, cache misses: %d\n", res.Reissues, res.CacheMisses)

	same := len(res.Image.Pix) == len(want.Image.Pix)
	if same {
		for i := range res.Image.Pix {
			if res.Image.Pix[i] != want.Image.Pix[i] {
				same = false
				break
			}
		}
	}
	fmt.Printf("result identical to failure-free sequential reference: %v\n", same)
	if !same {
		log.Fatal("resiliency failed to preserve the result")
	}
}
