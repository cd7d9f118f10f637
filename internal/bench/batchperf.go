// Batch/job-path performance evidence: the harness behind the
// BENCH_batch.json artifact (experiment E17). It stands up the full
// serving stack in process and answers two questions the batch and
// async-job APIs were built for:
//
//   - amortization: how much faster is one POST /v1/diff/batch with N
//     tiny pairs than the same N pairs issued as back-to-back
//     single-pair requests on one connection? The batch fans its items
//     out over the shared worker slots, so the expected win is roughly
//     min(N, GOMAXPROCS)× minus envelope overhead.
//   - async overhead: what do a job submit (202 round-trip) and a full
//     submit→poll-to-done cycle cost for the same tiny pair?
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/gen"
	"ladiff/internal/server"
	"ladiff/internal/textdoc"
)

// BatchPerfReport is the full BENCH_batch.json payload.
type BatchPerfReport struct {
	Benchmark  string `json:"benchmark"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Pairs is the batch width N: every round diffs the same tiny pair
	// N times, either as one batch request or as N sequential ones.
	Pairs    int `json:"pairs"`
	Rounds   int `json:"rounds"`
	OldNodes int `json:"old_nodes"`
	NewNodes int `json:"new_nodes"`

	// The two timed legs, total wall time over all rounds.
	SequentialSeconds float64 `json:"sequential_seconds"`
	BatchSeconds      float64 `json:"batch_seconds"`
	// Pairs diffed per second in each mode.
	SequentialPairsPerSec float64 `json:"sequential_pairs_per_sec"`
	BatchPairsPerSec      float64 `json:"batch_pairs_per_sec"`
	// SpeedupX is batch throughput over sequential throughput — the
	// acceptance bar for E17 is >= 2x at N = 32.
	SpeedupX float64 `json:"speedup_x"`

	// Async-job round-trip costs for the same pair.
	JobRounds      int   `json:"job_rounds"`
	JobSubmitP50US int64 `json:"job_submit_p50_us"`
	JobSubmitP95US int64 `json:"job_submit_p95_us"`
	JobDoneP50US   int64 `json:"job_done_p50_us"`
	JobDoneP95US   int64 `json:"job_done_p95_us"`
}

// CollectBatchPerf runs the E17 harness: `rounds` rounds of batch-N
// versus N-sequential over one minimal pair, then `rounds` job
// submit/poll cycles. Zero picks defaults (32 pairs, 30 rounds).
func CollectBatchPerf(pairs, rounds int) (*BatchPerfReport, error) {
	if pairs <= 0 {
		pairs = 32
	}
	if rounds <= 0 {
		rounds = 30
	}

	srv := server.New(server.Config{
		// The queue must absorb a whole batch fan-out: the harness
		// measures service throughput, not load shedding.
		MaxQueue:      pairs * 2,
		MaxBatchItems: pairs,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: pairs}

	// The E17 pair is deliberately minimal — one section, one
	// paragraph, one sentence. Batch-vs-sequential measures how much
	// per-round-trip overhead the batch envelope amortizes, so the
	// per-pair compute must stay near the floor or it drowns the very
	// overhead under test.
	tinyParams := gen.DocParams{Seed: 404, Sections: 1, MinParagraphs: 1,
		MaxParagraphs: 1, MinSentences: 1, MaxSentences: 1, Vocabulary: 200}
	doc := gen.Document(tinyParams)
	pert, err := gen.Perturb(doc, gen.Mix(4041, 1))
	if err != nil {
		return nil, fmt.Errorf("bench: batchperf perturb: %w", err)
	}
	pair := server.DiffRequest{
		Old:    textdoc.Render(doc),
		New:    textdoc.Render(pert.New),
		Format: "text",
	}
	singleBody, err := json.Marshal(pair)
	if err != nil {
		return nil, err
	}
	var batchReq server.BatchDiffRequest
	for i := 0; i < pairs; i++ {
		batchReq.Items = append(batchReq.Items, server.BatchDiffItem{DiffRequest: pair})
	}
	batchBody, err := json.Marshal(batchReq)
	if err != nil {
		return nil, err
	}

	report := &BatchPerfReport{
		Benchmark:  "CollectBatchPerf",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Pairs:      pairs,
		Rounds:     rounds,
		OldNodes:   doc.Len(),
		NewNodes:   pert.New.Len(),
		JobRounds:  rounds,
	}

	// Warm-up outside the timed windows: primes pools, connections,
	// and both handler paths.
	if err := postOK(client, ts.URL+"/v1/diff", singleBody); err != nil {
		return nil, fmt.Errorf("bench: batchperf warm-up diff: %w", err)
	}
	if err := postOK(client, ts.URL+"/v1/diff/batch", batchBody); err != nil {
		return nil, fmt.Errorf("bench: batchperf warm-up batch: %w", err)
	}

	// Sequential leg: N pairs back-to-back on one connection — the
	// client a batch API replaces.
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < pairs; i++ {
			if err := postOK(client, ts.URL+"/v1/diff", singleBody); err != nil {
				return nil, fmt.Errorf("bench: batchperf sequential: %w", err)
			}
		}
	}
	report.SequentialSeconds = time.Since(start).Seconds()

	// Batch leg: the same N pairs as one request.
	start = time.Now()
	for r := 0; r < rounds; r++ {
		if err := postOK(client, ts.URL+"/v1/diff/batch", batchBody); err != nil {
			return nil, fmt.Errorf("bench: batchperf batch: %w", err)
		}
	}
	report.BatchSeconds = time.Since(start).Seconds()

	total := float64(pairs * rounds)
	if report.SequentialSeconds > 0 {
		report.SequentialPairsPerSec = total / report.SequentialSeconds
	}
	if report.BatchSeconds > 0 {
		report.BatchPairsPerSec = total / report.BatchSeconds
	}
	if report.SequentialPairsPerSec > 0 {
		report.SpeedupX = report.BatchPairsPerSec / report.SequentialPairsPerSec
	}

	// Job leg: submit RTT and full submit→done latency via polling.
	submitUS := make([]int64, 0, rounds)
	doneUS := make([]int64, 0, rounds)
	jobBody, err := json.Marshal(server.JobSubmitRequest{DiffRequest: pair})
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		id, err := submitJobOnce(client, ts.URL, jobBody)
		if err != nil {
			return nil, fmt.Errorf("bench: batchperf job submit: %w", err)
		}
		submitUS = append(submitUS, time.Since(t0).Microseconds())
		if err := pollJobDone(client, ts.URL, id); err != nil {
			return nil, fmt.Errorf("bench: batchperf job poll: %w", err)
		}
		doneUS = append(doneUS, time.Since(t0).Microseconds())
	}
	sort.Slice(submitUS, func(i, j int) bool { return submitUS[i] < submitUS[j] })
	sort.Slice(doneUS, func(i, j int) bool { return doneUS[i] < doneUS[j] })
	report.JobSubmitP50US = latencyQuantile(submitUS, 0.50)
	report.JobSubmitP95US = latencyQuantile(submitUS, 0.95)
	report.JobDoneP50US = latencyQuantile(doneUS, 0.50)
	report.JobDoneP95US = latencyQuantile(doneUS, 0.95)
	return report, nil
}

// latencyQuantile reads the q-quantile from an ascending-sorted slice
// of latencies.
func latencyQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// postOK posts body and requires a 200, draining the response so the
// connection is reusable.
func postOK(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func submitJobOnce(client *http.Client, base string, body []byte) (string, error) {
	resp, err := client.Post(base+"/v1/jobs/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		return "", fmt.Errorf("submit status %d, id %q", resp.StatusCode, st.ID)
	}
	return st.ID, nil
}

func pollJobDone(client *http.Client, base, id string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch st.Status {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s ended %s", id, st.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s never finished", id)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
