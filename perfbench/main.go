// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time against the library or the in-process HTTP service,
// checks every answer against a reference computed without the engines
// under test, and prints one JSON result line.
//
//	perfbench --workload preimage-mult --seed 1 --seconds 35 --trace 0 [--out runs.ndjson]
//	perfbench compare parent.ndjson change.ndjson
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run (see README.md). The
// last line of standard output is always the result object; diagnostics
// and the run stamp go to standard error, and --out appends a stamped
// record of the run for the compare subcommand.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"preimage-mult", "reach-deep", "serve-mix"}

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 5

// maxProcs is the most client goroutines or solver workers a workload
// runs: nproc on the 2-core reference host.
const maxProcs = 2

// procs is the client and worker count of the multi-threaded workloads:
// maxProcs, or GOMAXPROCS when that is smaller. No workload then runs
// more threads than it has, and serve-mix never has more requests in
// flight than the server's GOMAXPROCS admission slots.
func procs() int { return min(maxProcs, runtime.GOMAXPROCS(0)) }

func newWorkload(name string) (workload, error) {
	switch name {
	case "preimage-mult":
		return &multWorkload{}, nil
	case "reach-deep":
		return &reachWorkload{}, nil
	case "serve-mix":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// stamp identifies the code, host and settings a result was measured with.
type stamp struct {
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    int     `json:"seconds"`
	WindowS    float64 `json:"window_s"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Time       string  `json:"time"`
}

// record is one line of an --out file: the stamp and the printed result.
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := fs.Int("seconds", 35, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	out := fs.String("out", "", "append a stamped record of the run to this NDJSON file")
	spans := fs.String("spans", "", "with --trace 1, write every recorded span to this NDJSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if _, err := newWorkload(*name); err != nil {
		return err
	}
	if *name == "reach-deep" {
		runtime.GOMAXPROCS(reachGOMAXPROCS)
	}

	st := stamp{
		Commit:     envOr("PERFBENCH_COMMIT", "unknown"),
		Workload:   *name,
		Seed:       *seed,
		Trace:      *trace == 1,
		Seconds:    *seconds,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}

	// Set-up is repeated and the median reported, so the metric is steady
	// enough to catch work moved out of the measured loop into set-up.
	var w workload
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
		}
		nw, _ := newWorkload(*name)
		t0 := time.Now()
		if err := nw.setup(*seed); err != nil {
			nw.close()
			return fmt.Errorf("set-up of %s: %w", *name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		w = nw
	}
	defer w.close()

	d := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		m := measure(w, d, false)
		res = m.endToEnd(median(setups))
		st.WindowS = m.window.Seconds()
	} else {
		tr := newTracer()
		w.setTracer(tr)
		m := measure(w, d, true)
		res = m.result()
		res.Metrics = perLayer(w, tr, m)
		st.WindowS = m.window.Seconds()
		if *spans != "" {
			if err := tr.writeSpans(*spans); err != nil {
				return err
			}
		}
	}
	// Checks outside the timed ops (the traced replays) fail the run too.
	for _, msg := range w.failures() {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(os.Stderr, "stamp: %s\n", stampJSON)
	if *out != "" {
		if err := appendRecord(*out, record{Stamp: st, Result: res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// cpuModel reads the processor name the kernel reports, for the stamp.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
