// Command swload drives a running swserve with a representative read
// mix, measures latency percentiles from the client side, and asserts
// the service-level objectives.
//
//	swload -addr http://127.0.0.1:8090 -duration 20s -workers 4 \
//	       -max-p99-ms 250 -require-stale -max-5xx 0
//
// Exit status is nonzero if any enabled assertion fails: the command is
// CI's service-smoke check as much as a benchmark tool.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"swcam/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8090", "service base URL")
	duration := flag.Duration("duration", 10*time.Second, "load window")
	workers := flag.Int("workers", 4, "concurrent closed-loop clients")
	deadlineMs := flag.Int("deadline-ms", 0, "per-request deadline sent to the server (0 = server default)")
	seed := flag.Int64("seed", 1, "request-mix seed")
	maxP99 := flag.Float64("max-p99-ms", 0, "fail if p99 latency exceeds this (0 = no bound)")
	max5xx := flag.Int64("max-5xx", 0, "fail if more than this many 5xx responses (default 0: any 5xx fails)")
	requireStale := flag.Bool("require-stale", false, "fail unless at least one response was served stale (proves degraded serving happened)")
	waitReady := flag.Duration("wait-ready", 30*time.Second, "wait up to this long for /readyz before loading")
	flag.Parse()

	client := &http.Client{Timeout: 30 * time.Second}
	if err := awaitReady(client, *addr, *waitReady); err != nil {
		fmt.Fprintln(os.Stderr, "swload:", err)
		os.Exit(1)
	}

	fmt.Printf("swload: %d workers against %s for %v\n", *workers, *addr, *duration)
	res, err := serve.RunLoad(serve.LoadConfig{
		BaseURL:    *addr,
		Duration:   *duration,
		Workers:    *workers,
		DeadlineMs: *deadlineMs,
		Seed:       *seed,
		Client:     client,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "swload:", err)
		os.Exit(1)
	}

	p50, p90, p99 := res.Percentile(50), res.Percentile(90), res.Percentile(99)
	fmt.Printf("swload: %d responses in %.1fs (%.1f req/s), %d transport errors\n",
		res.Requests, res.Duration.Seconds(), res.QPS(), res.Transport)
	fmt.Printf("swload: latency p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n", p50, p90, p99)
	statuses := make([]int, 0, len(res.ByStatus))
	for s := range res.ByStatus {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		fmt.Printf("swload:   %d: %d\n", s, res.ByStatus[s])
	}
	fmt.Printf("swload: %d shed (429), %d stale serves, %d 5xx\n", res.Shed429, res.Stale, res.Errors5xx)

	failed := false
	if res.Requests == 0 {
		fmt.Fprintln(os.Stderr, "swload: FAIL: no responses received")
		failed = true
	}
	if res.Transport > 0 {
		fmt.Fprintf(os.Stderr, "swload: FAIL: %d transport-level errors\n", res.Transport)
		failed = true
	}
	if res.Errors5xx > *max5xx {
		fmt.Fprintf(os.Stderr, "swload: FAIL: %d 5xx responses (max %d)\n", res.Errors5xx, *max5xx)
		failed = true
	}
	if *maxP99 > 0 && p99 > *maxP99 {
		fmt.Fprintf(os.Stderr, "swload: FAIL: p99 %.2f ms exceeds bound %.2f ms\n", p99, *maxP99)
		failed = true
	}
	if *requireStale && res.Stale == 0 {
		fmt.Fprintln(os.Stderr, "swload: FAIL: no stale serves observed (expected degraded serving under faults)")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("swload: all assertions passed")
}

// awaitReady polls /readyz until it returns 200 or the budget expires.
func awaitReady(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service at %s not ready within %v", base, budget)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
