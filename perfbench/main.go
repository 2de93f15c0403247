// Command perfbench is the repository's benchmark: it loads the
// dataset, drives one workload's seeded closed-loop op stream through
// the public APIs (server.Client over loopback, or core.Array
// in-process), checks every read and the final contents of every line,
// and prints the metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{name:{"value":v,"unit":u},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate pair of fixed-length phases (untraced, then traced) gives
// the per-layer ones. See README.md for the map from layer to metric
// to workload.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload engine-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance stamps a result with what produced it.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: rpc-mix, engine-hot or engine-ingest")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	commit := fs.String("commit", "unknown", "source revision to stamp on the result")
	out := fs.String("out", ".bench_build/perfbench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl := findWorkload(*name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	prov := provenance{
		Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Commit: *commit,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Println("provenance", string(pj))

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(wl, *seed, dur)
	} else {
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		res, err = runTraced(wl, *seed, *seconds, spans)
	}
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
		fmt.Printf("%-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	return nil
}

// setupReps is how many times a run builds and loads the dataset;
// setup_s is the median, so the slow first build of a process (fresh
// heap pages) and one disturbed build do not move it.
const setupReps = 7

// runEndToEnd sets up setupReps times, warms the last target up,
// measures for dur and verifies every line.
func runEndToEnd(wl *workload, seed uint64, dur time.Duration) (*result, error) {
	var (
		t      target
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, err
			}
			t = nil
		}
		runtime.GC()
		t0 := time.Now()
		nt, _, err := wl.setup(false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		t = nt
	}
	defer t.close()
	sh := newShadow(dataLines)
	ws := wl.newWorkers(seed)
	if _, err := runPhase(t, ws, sh, 0, wl.warmOps); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	res, err := runPhase(t, ws, sh, dur, 0)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	if err := verify(t, sh); err != nil {
		return nil, err
	}
	if err := t.close(); err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_per_s":     {res.opsPerS(), "1/s"},
		"read_p50_us":   {res.readH.quantile(0.50) / 1e3, "us"},
		"read_p90_us":   {res.readH.quantile(0.90) / 1e3, "us"},
		"write_p50_us":  {res.writeH.quantile(0.50) / 1e3, "us"},
		"write_p90_us":  {res.writeH.quantile(0.90) / 1e3, "us"},
		"cpu_us_per_op": {res.cpuPerOp(), "us"},
		"peak_heap_mb":  {float64(res.peakHeap) / (1 << 20), "MB"},
	}
	return &result{Correct: true, Attempted: res.ops, Failed: res.failed, Metrics: m}, nil
}

// verify flushes, reads every line back and compares it with the
// shadow. Any difference fails the run.
func verify(t target, sh *shadow) error {
	all := make([]byte, dataLines*lineSize)
	if err := t.readAll(all); err != nil {
		return fmt.Errorf("final read: %w", err)
	}
	if err := sh.checkFinal(all, 0); err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	return nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
