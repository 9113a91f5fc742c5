// Service example: run the multi-job fusion service in-process and drive
// it through the typed fusionclient SDK over the v2 API — submit a burst
// of cubes, wait for each with a single server-side long-poll (no
// hand-rolled status polling), then resubmit a scene and see it answered
// from the content-addressed result cache.
//
//	go run ./examples/service
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/service"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// 1. One long-lived pool: every job decomposed over 4 workers, up to
	//    4 jobs in flight, the rest queued (admission-controlled).
	pool, err := service.NewPool(service.Config{Workers: 4, MaxConcurrent: 4, QueueDepth: 32})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := fusionclient.New(srv.URL, fusionclient.WithHTTPClient(srv.Client()))
	fmt.Printf("fusion service on %s: 4 workers per job, 4 concurrent jobs\n\n", srv.URL)

	opts := &fusionclient.Options{Threshold: fusionclient.Float(0.05)}

	// 2. A burst of distinct scenes — new imagery from many sensors.
	const burst = 8
	ids := make([]string, burst)
	for i := 0; i < burst; i++ {
		scene, err := hsi.GenerateScene(hsi.SceneSpec{
			Width: 48, Height: 48, Bands: 16, Seed: int64(100 + i),
			NoiseSigma: 5, Illumination: 0.12,
			OpenVehicles: 1 + i%2, CamouflagedVehicles: i % 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		job, err := client.SubmitCube(ctx, scene.Cube, opts)
		if err != nil {
			log.Fatal(err)
		}
		ids[i] = job.ID
	}
	fmt.Printf("submitted %d jobs\n", burst)
	for i, id := range ids {
		// One long-poll per job: the server parks the request until the
		// job is terminal — no client-side polling loop.
		job, err := client.Wait(ctx, id)
		if err != nil {
			log.Fatal(err)
		}
		if job.State != fusionclient.StateDone {
			log.Fatalf("%s failed: %s", id, job.Error)
		}
		fmt.Printf("  %-7s scene %d: K=%-4d over %d sub-cubes (ran with granularity %d)\n",
			job.ID, 100+i, job.Result.UniqueSetSize, job.Result.SubCubes, job.Options.Granularity)
	}

	// 3. Re-image scene 100: identical cube + options → served from the
	//    content-addressed cache, already terminal at submit time.
	scene, err := hsi.GenerateScene(hsi.SceneSpec{
		Width: 48, Height: 48, Bands: 16, Seed: 100,
		NoiseSigma: 5, Illumination: 0.12, OpenVehicles: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	job, err := client.SubmitCube(ctx, scene.Cube, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresubmitted scene 100: state=%s cache_hit=%v\n", job.State, job.CacheHit)

	// 4. The unified job listing and the service counters.
	done, err := client.Jobs(ctx, fusionclient.StateDone, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("last %d done jobs:", len(done))
	for _, j := range done {
		fmt.Printf(" %s", j.ID)
	}
	fmt.Println()
	stats, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d submitted, %d completed, cache %d/%d hit/miss, %.1f jobs/s\n",
		stats.Submitted, stats.Completed, stats.CacheHits, stats.CacheMisses, stats.Throughput)
}
