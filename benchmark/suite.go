package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// printPass prints every metric of one pass by name with its unit.
func printPass(w io.Writer, fr *fullResult) {
	fmt.Fprintf(w, "== %s (%s pass, seed %d, %gs, commit %s, %s, %d cores, GOMAXPROCS %d, fault-free)\n",
		fr.Workload, fr.Pass, fr.Meta.Seed, fr.Seconds, fr.Meta.Commit, fr.Meta.GoVersion,
		fr.Meta.HostCores, fr.Meta.GoMaxProcs)
	names := make([]string, 0, len(fr.Metrics))
	for n := range fr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := fr.Metrics[n]
		line := fmt.Sprintf("  %-44s %14.6g %-8s", n, m.Value, m.Unit)
		if s, ok := fr.Samples[n]; ok {
			line += fmt.Sprintf("  q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w, line)
	}
	dnames := make([]string, 0, len(fr.Derived))
	for n := range fr.Derived {
		dnames = append(dnames, n)
	}
	sort.Strings(dnames)
	for _, n := range dnames {
		fmt.Fprintf(w, "  (derived) %-34s %14.6g\n", n, fr.Derived[n])
	}
	fmt.Fprintf(w, "  state hash %s; operations failed/attempted %d/%d\n", fr.Hash, fr.Failed, fr.Attempted)
	for _, f := range fr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// runChild runs one pass of one workload in its own process, so heap
// state and peak RSS do not leak between workloads, and returns the
// full result the child wrote.
func runChild(w workload, o options) (*fullResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	pass := 0
	if o.traced {
		pass = 1
	}
	out := filepath.Join(o.traceDir, fmt.Sprintf("%s.pass%d.json", w.Name, pass))
	args := []string{
		"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(pass), "-trace-dir", o.traceDir, "-json", out,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	_ = os.Remove(out) // a stale file must not pass for this run's result
	cmd := osexec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: child: %w", w.Name, runErr)
		}
		return nil, err
	}
	fr := new(fullResult)
	if err := json.Unmarshal(b, fr); err != nil {
		return nil, fmt.Errorf("%s: %w", out, err)
	}
	return fr, nil
}

// identityGroup lists the workloads that run one configuration for the
// same steps and so must print one state hash.
var identityGroup = []string{"dyn-athread", "dyn-intel", "supervised"}

// suiteResult is what -json writes for a whole run.
type suiteResult struct {
	Passes []*fullResult `json:"passes"`
	OK     bool          `json:"ok"`
}

// runSuite runs every workload's untraced then traced pass, prints
// every metric, and fails on any gate failure or broken identity.
func runSuite(o options, jsonPath string) error {
	start := time.Now()
	var sr suiteResult
	failures := 0
	hashes := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			po := o
			po.traced = traced
			fr, err := runChild(w, po)
			if err != nil {
				return err
			}
			if !traced {
				hashes[w.Name] = fr.Hash
			}
			printPass(os.Stdout, fr)
			sr.Passes = append(sr.Passes, fr)
			if !fr.Correct {
				failures++
			}
		}
	}
	for _, n := range identityGroup[1:] {
		if hashes[n] != hashes[identityGroup[0]] {
			fmt.Printf("FAILED: %s state hash %s != %s of %s\n", n, hashes[n], hashes[identityGroup[0]], identityGroup[0])
			failures++
		}
	}
	fmt.Printf("== %d workloads, both passes, %.0fs; %s print state hash %s\n",
		len(workloads), time.Since(start).Seconds(), identityGroup, hashes[identityGroup[0]])
	sr.OK = failures == 0
	if jsonPath != "" {
		if err := writeJSON(jsonPath, sr); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d correctness failures", failures)
	}
	return nil
}

// runAA runs n untraced sets of the same build and prints, per workload
// and end-to-end metric, the spread over the sets (quartile distance
// over median, which for two sets is their difference over their mean)
// beside the metric's bound. Modelled cost and state hashes must repeat
// exactly.
func runAA(o options, n int, jsonPath string) error {
	o.traced = false
	var sr suiteResult
	bad := 0
	fmt.Printf("A/A: %d sets, seed %d, %gs per pass\n", n, o.seed, o.seconds)
	fmt.Printf("%-12s %-20s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads {
		var sets []*fullResult
		for i := 0; i < n; i++ {
			fr, err := runChild(w, o)
			if err != nil {
				return err
			}
			if !fr.Correct {
				bad++
				fmt.Printf("%-12s FAILED gate: %v\n", w.Name, fr.Failures)
			}
			sets = append(sets, fr)
			sr.Passes = append(sr.Passes, fr)
		}
		for _, d := range endToEnd {
			xs := make([]float64, n)
			for i, fr := range sets {
				xs[i] = fr.Metrics[d.Name].Value
			}
			spread := relSpread(xs)
			mark := ""
			if spread > d.Bound {
				mark = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-12s %-20s %12.6g %8.2f%% %6.0f%%%s\n", w.Name, d.Name, median(xs), 100*spread, 100*d.Bound, mark)
		}
		for _, fr := range sets[1:] {
			if fr.Derived["model_ms_per_step"] != sets[0].Derived["model_ms_per_step"] {
				fmt.Printf("%-12s model_ms_per_step differs between sets: %v vs %v\n", w.Name,
					fr.Derived["model_ms_per_step"], sets[0].Derived["model_ms_per_step"])
				bad++
			}
			if fr.Hash != sets[0].Hash {
				fmt.Printf("%-12s state hash differs between sets: %s vs %s\n", w.Name, fr.Hash, sets[0].Hash)
				bad++
			}
		}
	}
	sr.OK = bad == 0
	if jsonPath != "" {
		if err := writeJSON(jsonPath, sr); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metrics outside their bound or runs not identical", bad)
	}
	return nil
}
