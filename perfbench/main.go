// Command perfbench is the repository benchmark of the AIMS reproduction.
// It drives one of three seeded workloads against the real program code in
// a single process and prints the end-to-end metrics, or — with -trace 1 —
// replays the same generated inputs, and a recognition stream, through
// each layer's public functions and prints the per-layer metrics. NOTES.md
// in this directory describes the workloads, the metric→layer map and the
// noise the design survives.
//
//	bash perfbench/run.sh --workload query --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full record (seed, machine, sample counts, failure fraction, …).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings. Sizes shrink in smoke mode so tests can
// drive every workload end to end in well under a second each.
type config struct {
	seed     int64
	seconds  float64
	slices   int
	setups   int  // setup repetitions whose median is setup_s
	warmups  int  // untimed setup repetitions before those
	smoke    bool // tiny inputs (tests)
	workDir  string
	traceDir string
}

const (
	// slices splits every timed phase; each end-to-end figure is the
	// median over them.
	slices = 10
	// setups is how many set-ups setup_s is the median of.
	setups = 7
	// warmups is how many set-ups run untimed before them: the first
	// set-ups in a process also pay for growing the heap from nothing.
	warmups = 3
)

func (c config) phase() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome is what one workload's end-to-end run measured.
type outcome struct {
	setupS  []float64 // one entry per setup repetition
	phase   phaseStats
	heapMB  float64
	tally   tally
	checked int64 // answers compared with the reference
	wrong   int64 // answers that disagreed
	// replayOps is how many ops the layer replay re-executes to match
	// this run (frames for ingest, queries otherwise).
	replayOps int64
	record    map[string]any
}

func (o *outcome) acc() float64 {
	if o.checked == 0 {
		return 0
	}
	return float64(o.checked-o.wrong) / float64(o.checked)
}

// workload is one named traffic mix: an end-to-end run, and a layer
// replay that re-executes its generated inputs through the layers' public
// functions with spans around every call. A workload without a run is
// replay-only: every traced run replays it, but it cannot be named.
type workload struct {
	name   string
	run    func(cfg config) (*outcome, error)
	replay func(cfg config, tr *tracer, lim replayLimit) (*layerReport, error)
}

var workloads = []workload{
	{name: "ingest", run: runIngest, replay: replayIngest},
	{name: "query", run: runQuery, replay: replayQuery},
	{name: "fleet", run: runFleet, replay: replayFleet},
	{name: "recognize", replay: replayRecognize},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name && w.run != nil {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, query or fleet")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "timed phase length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced layer replay (per-layer metrics), 0 = end-to-end metrics")
		root    = flag.String("root", ".", "repository checkout the benchmark runs in")
		commit  = flag.String("commit", "none", "commit of the checkout, if known")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q, or bad --seconds or --trace\n", *name)
		os.Exit(2)
	}
	build := filepath.Join(*root, ".bench_build")
	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		slices:   slices,
		setups:   setups,
		warmups:  warmups,
		workDir:  filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		traceDir: filepath.Join(build, "traces"),
	}

	rec := environment(*root, *commit)
	rec["workload"] = w.name
	rec["seed"] = *seed
	rec["seconds"] = *seconds
	rec["trace"] = *trace

	var res result
	var err error
	if *trace == 1 {
		res, err = traced(cfg, w, rec)
	} else {
		res, err = endToEnd(cfg, w, rec)
	}
	os.RemoveAll(cfg.workDir)
	var line, out []byte
	if err == nil {
		line, err = json.Marshal(rec)
	}
	if err == nil {
		// Fails on a NaN or infinite metric, which must not be printed.
		out, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Printf("{\"record\":%s}\n", line)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEnd runs the workload untraced and reports every end-to-end metric.
func endToEnd(cfg config, w workload, rec map[string]any) (result, error) {
	o, err := w.run(cfg)
	if err != nil {
		return result{}, err
	}
	if o.phase.ops == 0 {
		return result{}, errors.New("no operation completed in the timed phase")
	}
	if o.phase.p99Slices == 0 {
		return result{}, fmt.Errorf("no slice collected the %d latency samples a p99 needs (fewest %d); lengthen --seconds",
			100*minTail, o.phase.minSlice)
	}
	return e2eResult(o, rec), nil
}

// e2eResult folds an outcome into the record and the result line.
func e2eResult(o *outcome, rec map[string]any) result {
	for k, v := range o.record {
		rec[k] = v
	}
	rec["setup_s_each"] = o.setupS
	rec["ops"] = o.phase.ops
	rec["latency_samples"] = o.phase.samples
	rec["latency_samples_min_slice"] = o.phase.minSlice
	rec["p99_slices"] = o.phase.p99Slices
	rec["slices"] = o.phase.slices
	rec["checked"] = o.checked
	rec["wrong"] = o.wrong
	rec["fail_frac"] = o.tally.failFrac()
	rec["errored"], rec["shed"], rec["partial"] = o.tally.errored, o.tally.shed, o.tally.partial
	m := map[string]metric{
		"setup_s":       {median(o.setupS), "s"},
		"ops_per_s":     {o.phase.opsPerS, "1/s"},
		"cpu_us_per_op": {o.phase.cpuUSPerOp, "us"},
		"p50_ms":        {o.phase.p50MS, "ms"},
		"p99_ms":        {o.phase.p99MS, "ms"},
		"live_heap_mb":  {o.heapMB, "MB"},
		"accuracy":      {o.acc(), "frac"},
		"ok_frac":       {1 - o.tally.failFrac(), "frac"},
	}
	correct := o.wrong == 0 && o.tally.failed() == 0
	return result{Correct: correct, Attempted: o.tally.attempted, Failed: o.tally.failed(), Metrics: m}
}

// liveHeapMB collects garbage and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSetups runs setup cfg.warmups+cfg.setups times and returns the wall
// time of each of the last cfg.setups. Before each repetition prepare (when
// non-nil) runs untimed and the heap is collected; every repetition but
// the last is then torn down by teardown, also untimed, so only the last
// one's state stays live.
func timeSetups(cfg config, prepare, setup, teardown func(rep int) error) ([]float64, error) {
	n := cfg.warmups + max(cfg.setups, 1)
	out := make([]float64, 0, n-cfg.warmups)
	for i := 0; i < n; i++ {
		if prepare != nil {
			if err := prepare(i); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(i); err != nil {
			return nil, err
		}
		if i >= cfg.warmups {
			out = append(out, time.Since(t0).Seconds())
		}
		if i < n-1 {
			if err := teardown(i); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// environment is the machine part of every record.
func environment(root, commit string) map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"tree":       treeHash(root),
		"fsync":      "interval",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeHash identifies the source tree when no commit is known: SHA-256
// over the path and content of every .go file and go.mod under root.
func treeHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
