package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// BatchDiffRequest is the body of POST /v1/diff/batch: many diff pairs
// in one round trip. Items are independent — each runs the same
// pipeline as POST /v1/diff, fanned out in parallel across the shared
// worker slots, and fails independently (partial-failure semantics:
// the batch itself is 200 as long as the envelope could be built, with
// per-item errors inline).
type BatchDiffRequest struct {
	Items []BatchDiffItem `json:"items"`
}

// BatchDiffItem is one pair in a batch: a full DiffRequest plus an
// optional client-chosen correlation ID, echoed back on the item's
// result. Non-empty IDs must be unique within the batch.
type BatchDiffItem struct {
	ID string `json:"id,omitempty"`
	DiffRequest
}

// BatchItemResult is one item's outcome: exactly one of Response and
// Error is set. Response is byte-for-byte the body the same request
// would have produced on POST /v1/diff; Error carries the status, code,
// and message the single-request path would have failed with.
type BatchItemResult struct {
	ID       string        `json:"id,omitempty"`
	Response *DiffResponse `json:"response,omitempty"`
	Error    *ItemError    `json:"error,omitempty"`
}

// BatchDiffResponse is the body of a successful POST /v1/diff/batch.
// Items preserve request order regardless of completion order.
type BatchDiffResponse struct {
	Items     []BatchItemResult `json:"items"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// validateBatch applies the batch-level bounds. Per-item validation
// happens inside each item's run (via planDiff) so one bad item fails
// alone; these checks are the ones that must reject the whole request:
// an empty batch, too many items, aggregate document bytes over the
// cap, and duplicate correlation IDs (which would make the response
// ambiguous to correlate).
func (s *Server) validateBatch(req *BatchDiffRequest) *ItemError {
	if len(req.Items) == 0 {
		return s.badRequest("batch has no items")
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		return refuse(&s.met.RejectedSize, http.StatusRequestEntityTooLarge, "too_many_items",
			fmt.Sprintf("batch has %d items; the limit is %d", len(req.Items), s.cfg.MaxBatchItems))
	}
	var total int64
	seen := make(map[string]struct{}, len(req.Items))
	for i := range req.Items {
		it := &req.Items[i]
		total += int64(len(it.Old)) + int64(len(it.New))
		if it.ID == "" {
			continue
		}
		if _, dup := seen[it.ID]; dup {
			return s.badRequest(fmt.Sprintf("duplicate item id %q", it.ID))
		}
		seen[it.ID] = struct{}{}
	}
	if total > s.cfg.MaxBatchBytes {
		return refuse(&s.met.RejectedSize, http.StatusRequestEntityTooLarge, "batch_too_large",
			fmt.Sprintf("batch documents total %d bytes; the limit is %d", total, s.cfg.MaxBatchBytes))
	}
	return nil
}

func (s *Server) handleDiffBatch(w http.ResponseWriter, r *http.Request) *ItemError {
	var req BatchDiffRequest
	if ierr := s.readJSON(w, r, &req); ierr != nil {
		return ierr
	}
	if ierr := s.validateBatch(&req); ierr != nil {
		return ierr
	}
	s.met.BatchRequests.Add(1)
	s.met.BatchItems.Add(int64(len(req.Items)))

	// Fan out: every item is its own unit of work competing for the
	// shared worker slots. The batch handler itself holds no slot — it
	// only waits — so a batch can never deadlock behind its own items.
	// The pool is sized at twice the slot count (capped at the item
	// count): enough waiters to keep every slot saturated while a
	// finished worker marshals its result, without paying a goroutine
	// per item on wide batches.
	resp := BatchDiffResponse{Items: make([]BatchItemResult, len(req.Items))}
	workers := 2 * s.cfg.MaxConcurrent
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Items) {
					return
				}
				resp.Items[i] = s.runBatchItem(r.Context(), req.Items[i])
			}
		}()
	}
	wg.Wait()
	for i := range resp.Items {
		if resp.Items[i].Error != nil {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// runBatchItem executes one item exactly as POST /v1/diff would run the
// same body: validate, enter a worker slot (bounded queue, deadline and
// all), execute the pipeline. Every metric a single request would bump
// is bumped here by the shared helpers, so a batch of N counts like N
// requests (minus the one requests_total, which counts HTTP envelopes).
func (s *Server) runBatchItem(rctx context.Context, item BatchDiffItem) BatchItemResult {
	res := BatchItemResult{ID: item.ID}
	plan, ierr := s.planDiff(item.DiffRequest)
	if ierr != nil {
		res.Error = ierr
		return res
	}
	ctx, cancel, ierr := s.enter(rctx, s.timeout(item.TimeoutMs))
	if ierr != nil {
		res.Error = ierr
		return res
	}
	defer s.leave(cancel)
	res.Response, res.Error = s.executeDiff(ctx, plan)
	return res
}
