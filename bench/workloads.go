package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

const (
	poolWorkers    = 2 // -workers of every in-process-pool daemon
	clusterWorkers = 2 // fusionworkerd processes of cluster_r2

	smallCubes  = 16 // 64×64×32
	mediumCubes = 4  // 128×128×64
	recentCold  = 64 // repeats draw from this many most recent cold pairs
)

// workload is one traffic mix against one daemon configuration. Every
// workload is a closed loop: each client submits its next op only when
// the previous one's PNG is in hand.
type workload struct {
	name string // BENCHMARK.json and README.md say why each exists
	// scene workloads register one §4-geometry ENVI scene in set-up and
	// fuse it with alg on every op; the others draw cube ops from the
	// seeded mixed stream.
	scene   bool
	alg     string
	clients int
	warmup  int
	// tailPct is the percentile op_tail_ms reports, fixed per workload
	// so the metric means the same thing on every run: the highest of
	// 75/90/95 that leaves at least ten samples beyond it at this
	// workload's op rate over the manifest's run_seconds. scene_pyramid
	// gets about 27 ops in that time, so its p75 leaves only 7 (README).
	tailPct int
	cluster bool
	// daemonArgs gives fusiond's flags beyond -addr; dir is the boot's
	// private state directory.
	daemonArgs func(dir, clusterAddr string) []string
}

func plainArgs(concurrency, cache int) func(string, string) []string {
	return func(string, string) []string {
		return []string{"-workers", fmt.Sprint(poolWorkers),
			"-concurrency", fmt.Sprint(concurrency), "-cache", fmt.Sprint(cache)}
	}
}

var workloads = []*workload{
	{
		name: "scene_pct", scene: true, alg: "pct", clients: 1, warmup: 4, tailPct: 75,
		daemonArgs: plainArgs(1, -1),
	},
	{
		name: "scene_pyramid", scene: true, alg: "pyramid", clients: 1, warmup: 3, tailPct: 75,
		daemonArgs: plainArgs(1, -1),
	},
	{
		name: "jobs_mixed", clients: 2, warmup: 50, tailPct: 95,
		daemonArgs: plainArgs(2, 128),
	},
	{
		name: "jobs_durable", clients: 2, warmup: 50, tailPct: 95,
		daemonArgs: func(dir, _ string) []string {
			return []string{"-workers", fmt.Sprint(poolWorkers), "-concurrency", "2", "-cache", "8",
				"-spool", filepath.Join(dir, "spool"), "-journal", filepath.Join(dir, "journal"),
				"-cache-spill-mb", "64"}
		},
	},
	{
		name: "cluster_r2", scene: true, alg: "pct", clients: 1, warmup: 4, tailPct: 75, cluster: true,
		daemonArgs: func(_, clusterAddr string) []string {
			return []string{"-cluster", clusterAddr, "-cluster-workers", fmt.Sprint(clusterWorkers),
				"-cluster-replication", "2", "-cache", "-1"}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a workload sends, generated from the seed before
// any clock starts. The daemons only ever receive these bytes.
type inputs struct {
	// Scene workloads: the cube, and its ENVI BIL rendering on disk.
	sceneCube *hsi.Cube
	sceneHdr  string
	scenePath string
	// Job workloads: the cube pool and each cube's HSIC encoding.
	cubes []*hsi.Cube
	hsic  [][]byte
}

func genCube(w, h, bands int, seed int64) (*hsi.Cube, error) {
	spec := hsi.DefaultSceneSpec()
	spec.Width, spec.Height, spec.Bands, spec.Seed = w, h, bands, seed
	s, err := hsi.GenerateScene(spec)
	if err != nil {
		return nil, err
	}
	return s.Cube, nil
}

// writeScene renders cube as an ENVI BIL scene under dir and returns the
// data path and header text.
func writeScene(dir string, cube *hsi.Cube) (path, hdr string, err error) {
	path = filepath.Join(dir, "scene.raw")
	if err := scene.Write(path, cube, scene.BIL); err != nil {
		return "", "", err
	}
	text, err := os.ReadFile(scene.HeaderPath(path))
	return path, string(text), err
}

func generateInputs(w *workload, seed int64, dir string) (*inputs, error) {
	in := &inputs{}
	if w.scene {
		cube, err := genCube(320, 320, 105, seed)
		if err != nil {
			return nil, err
		}
		in.sceneCube = cube
		in.scenePath, in.sceneHdr, err = writeScene(dir, cube)
		return in, err
	}
	for i := 0; i < smallCubes+mediumCubes; i++ {
		w, h, b := 64, 64, 32
		if i >= smallCubes {
			w, h, b = 128, 128, 64
		}
		cube, err := genCube(w, h, b, seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := cube.WriteTo(&buf); err != nil {
			return nil, err
		}
		in.cubes = append(in.cubes, cube)
		in.hsic = append(in.hsic, buf.Bytes())
	}
	return in, nil
}

// sample is the input the traced run replays through each layer in
// process: the scene, or the job pool's first medium cube.
func (in *inputs) sample() *hsi.Cube {
	if in.sceneCube != nil {
		return in.sceneCube
	}
	return in.cubes[smallCubes]
}

// op is one submit → wait → PNG sequence of the stream.
type op struct {
	idx  int
	cube int     // index into inputs.cubes; -1 for a scene fuse
	alg  string  // pct, pyramid or dwt
	thr  float64 // screening threshold; 0 takes the default
	orig int     // stream index of the cold op this repeats; -1 if cold
}

// slot is one position of a job block: what kind of op goes there.
type slot struct {
	repeat bool
	medium bool
	alg    string
}

// jobBlock is the job workloads' mix, exact in every 25 ops whatever the
// seed: 16 cold (12 small, 4 medium; each size 2:1:1 pct:pyramid:dwt)
// and 9 repeats. Drawing each op independently at the same odds lets
// the class shares wander by a few percent between seeds, and the
// median, which sits inside one latency class, wanders with them; with
// the shares fixed a seed only changes the order, the cubes and the
// thresholds.
var jobBlock = func() []slot {
	var b []slot
	for _, medium := range []bool{false, false, false, true} {
		for _, alg := range []string{"pct", "pct", "pyramid", "dwt"} {
			b = append(b, slot{medium: medium, alg: alg})
		}
	}
	for len(b) < 25 {
		b = append(b, slot{repeat: true})
	}
	return b
}()

// stream deals the workload's ops in a seed-determined order; clients
// share it, so the sequence submitted does not depend on their number.
type stream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	w      *workload
	issued []op
	block  []slot // the rest of the current shuffled job block
	recent []int  // stream indices of the latest cold ops, oldest first
}

func newStream(w *workload, seed int64) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), w: w}
}

func (s *stream) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := op{idx: len(s.issued), cube: -1, alg: s.w.alg, orig: -1}
	if !s.w.scene {
		if len(s.block) == 0 {
			s.block = append(s.block, jobBlock...)
			s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		}
		// A repeat skips the two newest cold ops: with two clients the
		// newest may still be running, and the repeat is meant to find a
		// finished result in the cache. Until three cold ops exist, a
		// repeat trades places with the block's next cold slot.
		eligible := len(s.recent) - 2
		if s.block[0].repeat && eligible <= 0 {
			for i := range s.block {
				if !s.block[i].repeat {
					s.block[0], s.block[i] = s.block[i], s.block[0]
					break
				}
			}
		}
		sl := s.block[0]
		s.block = s.block[1:]
		if sl.repeat {
			o = s.issued[s.recent[s.rng.Intn(eligible)]]
			o.orig, o.idx = o.idx, len(s.issued)
		} else {
			// A threshold no earlier op used, so the cache cannot know it.
			o.cube = s.rng.Intn(smallCubes)
			if sl.medium {
				o.cube = smallCubes + s.rng.Intn(mediumCubes)
			}
			o.alg = sl.alg
			o.thr = 0.08 + 0.04*s.rng.Float64()
			s.recent = append(s.recent, o.idx)
			if len(s.recent) > recentCold {
				s.recent = s.recent[1:]
			}
		}
	}
	s.issued = append(s.issued, o)
	return o
}
