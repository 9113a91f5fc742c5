// Scene example: the whole-scene streaming pipeline end to end, driven
// through the typed fusionclient SDK. A synthetic HYDICE-like scene is
// written to disk as an ENVI BIL raster, uploaded with a streaming
// multipart request (the payload spools to disk, never to memory), fused
// tile-by-tile over the job's workers, and the mosaic fetched back as
// PNG — all with a single long-poll wait instead of a status-poll loop.
// The same cube is then submitted through the in-memory path to show the
// two produce byte-identical composites, and that the second submission
// is a content-addressed cache hit (a streamed scene digests identically
// to its in-memory cube).
//
//	go run ./examples/scene
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scene-example: ")
	ctx := context.Background()

	// A paper-shaped (if reduced) synthetic scene, written as ENVI BIL.
	spec := hsi.DefaultSceneSpec()
	spec.Width, spec.Height, spec.Bands = 96, 96, 64
	sc, err := hsi.GenerateScene(spec)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "scene-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rawPath := filepath.Join(dir, "hydice.raw")
	if err := scene.Write(rawPath, sc.Cube, scene.BIL); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(rawPath)
	log.Printf("wrote ENVI scene %s: %s as BIL, %.1f MiB raw", rawPath, sc.Cube, float64(st.Size())/(1<<20))

	pool, err := service.NewPool(service.Config{Workers: 4, MaxConcurrent: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	client := fusionclient.New(srv.URL, fusionclient.WithHTTPClient(srv.Client()))

	// Upload: the SDK streams header + raw payload as multipart; the
	// service spools it without ever materializing the scene in memory.
	hdrText, err := os.ReadFile(rawPath + ".hdr")
	if err != nil {
		log.Fatal(err)
	}
	raw, err := os.Open(rawPath)
	if err != nil {
		log.Fatal(err)
	}
	defer raw.Close()
	info, err := client.RegisterScene(ctx, string(hdrText), raw)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("registered %s: %dx%dx%d %s, digest %.12s…",
		info.ID, info.Width, info.Height, info.Bands, info.Interleave, info.Digest)

	// Fuse the scene and long-poll straight to the terminal state.
	opts := &fusionclient.Options{
		Threshold:   fusionclient.Float(0.05),
		Granularity: fusionclient.Int(4),
	}
	job, err := client.FuseScene(ctx, info.ID, opts)
	if err != nil {
		log.Fatal(err)
	}
	job, err = client.Wait(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	if job.State != fusionclient.StateDone {
		log.Fatalf("scene fuse failed: %s", job.Error)
	}
	log.Printf("fused %s: %d/%d tiles streamed through the pool, K=%d",
		job.ID, job.Progress.Transformed, job.Progress.Total, job.Result.UniqueSetSize)

	// Fetch the mosaic through the content-negotiated result endpoint.
	scenePNG, err := client.ResultPNG(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	outPath := filepath.Join(dir, "mosaic.png")
	if err := os.WriteFile(outPath, scenePNG, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("fetched mosaic: %d bytes of PNG", len(scenePNG))

	// Submit the identical cube through the in-memory path: the scene
	// digest matches the cube digest, so this is a cache hit, and the
	// composites are byte-identical.
	memJob, err := client.SubmitCube(ctx, sc.Cube, opts)
	if err != nil {
		log.Fatal(err)
	}
	if !memJob.Terminal() {
		if memJob, err = client.Wait(ctx, memJob.ID); err != nil {
			log.Fatal(err)
		}
	}
	memPNG, err := client.ResultPNG(ctx, memJob.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("in-memory resubmission cache hit: %v\n", memJob.CacheHit)
	fmt.Printf("streamed mosaic == in-memory composite: %v (%d bytes)\n", bytes.Equal(scenePNG, memPNG), len(memPNG))
}
