package server

import (
	"context"
	"encoding/json"
	"net/http"

	"balarch/internal/engine"
)

// batch fans a slice of heterogeneous requests out across an engine.Pool.
// Results come back in request order whatever order the workers finish —
// the pool's ordering guarantee — and each item carries the status and body
// it would have received as a standalone request, so one invalid item
// yields one 4xx entry instead of failing the batch.
func (s *Server) batch(ctx context.Context, req *BatchRequest) (*BatchResponse, *apiError) {
	if apiErr := s.checkBatchSize(req); apiErr != nil {
		return nil, apiErr
	}
	jobs := make([]engine.Job[BatchResult], len(req.Requests))
	for i, item := range req.Requests {
		item := item
		jobs[i] = engine.Job[BatchResult]{Run: func(ctx context.Context) (BatchResult, error) {
			return s.batchItem(ctx, item), nil
		}}
	}
	// The per-request budget applies to the fan-out as a whole (it lived in
	// the middleware chain before the chain went allocation-free).
	bctx, cancel := s.opBudget(ctx)
	defer cancel()
	pool := engine.Pool[BatchResult]{Parallelism: s.opts.Parallelism}
	results, err := pool.Run(s.sweepContext(bctx), jobs)
	if err != nil {
		// Items never return errors, so this is context death.
		return nil, asSweepError(err)
	}
	return &BatchResponse{Results: results}, nil
}

// checkBatchSize enforces the item-count bounds a batch request and a
// batch job share.
func (s *Server) checkBatchSize(req *BatchRequest) *apiError {
	if len(req.Requests) == 0 {
		return unprocessable("invalid_argument", "requests must list at least one item")
	}
	if len(req.Requests) > s.opts.MaxBatch {
		return unprocessable("batch_too_large",
			"batch of %d exceeds the limit of %d", len(req.Requests), s.opts.MaxBatch)
	}
	return nil
}

// batchItem executes one sub-request through its op row: the core the
// standalone handler uses.
func (s *Server) batchItem(ctx context.Context, item BatchItem) BatchResult {
	res := BatchResult{Op: item.Op}
	var (
		body any
		err  *apiError
	)
	switch o := findOp(batchItemOps, item.Op); {
	case item.Op == "":
		err = badRequest("invalid_argument", "batch item is missing op")
	case o == nil:
		err = badRequest("unknown_op", "unknown batch op %q (one of %s)", item.Op, opNames(batchItemOps))
	case len(item.Request) == 0:
		err = badRequest("bad_json", "batch item has no request body")
	default:
		body, err = o.call(s, ctx, item.Request)
	}
	if err != nil {
		res.Status = err.Status
		res.Error = &err.Body
		return res
	}
	// Marshal through a pooled buffer (the append encoder handles the hot
	// response types, json.Marshal the rest — byte-identical either way),
	// then right-size the copy the result keeps: the item's body must own
	// its bytes, the scratch goes back to the pool.
	bb := getBuf()
	data, mErr := appendJSONCompact(bb.b[:0], body)
	if mErr != nil {
		putBuf(bb)
		res.Status = http.StatusInternalServerError
		res.Error = &ErrorBody{"internal", mErr.Error()}
		return res
	}
	res.Body = append(json.RawMessage(nil), data...)
	bb.b = data
	putBuf(bb)
	res.Status = http.StatusOK
	return res
}

// experimentOp adapts runExperiment to the batch core shape; its response
// matches the standalone JSON format.
func (s *Server) experimentOp(ctx context.Context, ref *ExperimentRef) (*ExperimentRunResponse, *apiError) {
	res, apiErr := s.runExperiment(ctx, ref.ID)
	if apiErr != nil {
		return nil, apiErr
	}
	data, err := res.JSON()
	if err != nil {
		return nil, internalError(err)
	}
	return &ExperimentRunResponse{Pass: res.Pass(), Result: data}, nil
}
