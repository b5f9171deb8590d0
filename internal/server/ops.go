package server

// The op table: every operation POST /v1/jobs and POST /v1/batch accept,
// one row each, holding how its request decodes, what is checked and
// priced at submit, and the core that answers it. Job submission, the job
// executor, batch items and the gateway's job-id predictor (RouteIDForJob)
// are lookups in it, so an op is added, checked or re-priced in one place.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"

	"balarch/internal/experiments"
)

// op is one row of the table.
type op struct {
	name string
	// decode strict-decodes a request body into the op's DTO.
	decode func(raw json.RawMessage) (any, *apiError)
	// check refuses at submit what the synchronous endpoint would refuse,
	// and returns the admission footprint of what it accepts.
	check func(s *Server, ctx context.Context, req any) (cost int64, apiErr *apiError)
	// run answers a decoded request through the op's core: the function
	// its synchronous endpoint runs. The answer is meaningful only when
	// the error is nil.
	run func(s *Server, ctx context.Context, req any) (any, *apiError)
}

// ops lists the rows in the order error messages name them. batch is
// last: it is the one op a batch cannot hold (batchItemOps).
var ops = []op{
	newOp("analyze", (*Server).analyze, nil),
	newOp("rebalance", (*Server).rebalance, nil),
	newOp("roofline", (*Server).roofline, nil),
	newOp("sweep", (*Server).runSweep, checkSweep),
	newOp("experiment", (*Server).experimentOp, checkExperiment),
	newOp("batch", (*Server).batch, (*Server).checkBatch),
}

// opTable is ops, and batchItemOps every row of it but batch, copied by
// init(): the batch row's core and check look ops up, so reading ops
// directly would close an initialization cycle (ops → (*Server).batch →
// batchItem → ops). apiIndexRoutes breaks its cycle the same way.
var opTable, batchItemOps []op

func init() { opTable, batchItemOps = ops, ops[:len(ops)-1] }

// opNames lists rows for error messages.
func opNames(rows []op) string {
	names := make([]string, len(rows))
	for i, o := range rows {
		names[i] = o.name
	}
	return strings.Join(names, ", ")
}

// findOp returns the row named name, or nil.
func findOp(rows []op, name string) *op {
	for i := range rows {
		if rows[i].name == name {
			return &rows[i]
		}
	}
	return nil
}

// newOp builds a row from the op's request type, its core and its
// submit-time check. A nil check makes the core itself the check, its
// answer thrown away, at the base footprint: the analytic cores are a few
// microseconds of arithmetic, and so a job is refused at submit exactly
// when the synchronous endpoint would refuse it.
func newOp[Req, Resp any](name string,
	core func(*Server, context.Context, *Req) (Resp, *apiError),
	check func(*Server, context.Context, *Req) (int64, *apiError)) op {
	if check == nil {
		check = func(s *Server, ctx context.Context, req *Req) (int64, *apiError) {
			_, apiErr := core(s, ctx, req)
			return jobBaseCost, apiErr
		}
	}
	return op{
		name: name,
		decode: func(raw json.RawMessage) (any, *apiError) {
			req := new(Req)
			if apiErr := strictDecodeJSON(bytes.NewReader(raw), req); apiErr != nil {
				return nil, apiErr
			}
			return req, nil
		},
		check: func(s *Server, ctx context.Context, req any) (int64, *apiError) {
			return check(s, ctx, req.(*Req))
		},
		run: func(s *Server, ctx context.Context, req any) (any, *apiError) {
			return core(s, ctx, req.(*Req))
		},
	}
}

// call decodes raw and answers it.
func (o *op) call(s *Server, ctx context.Context, raw json.RawMessage) (any, *apiError) {
	req, apiErr := o.decode(raw)
	if apiErr != nil {
		return nil, apiErr
	}
	return o.run(s, ctx, req)
}

// admitOp decodes a job's request body and checks and prices it. The
// check runs here, at submit: a request the synchronous endpoint would
// refuse with a 4xx is refused now, not accepted and failed later. The
// job's canonical request is mustMarshal(req), so equal requests have
// equal bytes whatever their whitespace or field order.
func (s *Server) admitOp(ctx context.Context, name string, raw json.RawMessage) (req any, cost int64, apiErr *apiError) {
	if len(raw) == 0 {
		return nil, 0, badRequest("bad_json", "job has no request body")
	}
	o := findOp(opTable, name)
	if o == nil {
		if name == "" {
			return nil, 0, badRequest("invalid_argument", "job is missing op (one of %s)", opNames(opTable))
		}
		return nil, 0, badRequest("unknown_op", "unknown job op %q (one of %s)", name, opNames(opTable))
	}
	if req, apiErr = o.decode(raw); apiErr != nil {
		return nil, 0, apiErr
	}
	if cost, apiErr = o.check(s, ctx, req); apiErr != nil {
		return nil, 0, apiErr
	}
	return req, cost, nil
}

// mustMarshal marshals a DTO or an event payload: they are plain data, so
// failure is a programming error.
func mustMarshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// Admission-control footprint model (documented in DESIGN.md §6): every
// job holds at least the base (DTO, response buffer, bookkeeping); a
// sweep adds its kernel row's working set (sweepKernel.cost); an
// experiment is a bundle of sweeps, budgeted flat; a batch is the sum of
// its items.
const (
	jobBaseCost       = 64 << 10
	experimentJobCost = 16 << 20
	wordBytes         = 8
)

// checkSweep validates a sweep as runSweep will and prices it by its
// kernel row.
func checkSweep(_ *Server, _ context.Context, req *SweepRequest) (int64, *apiError) {
	k, apiErr := validateSweep(req)
	if apiErr != nil {
		return 0, apiErr
	}
	return jobBaseCost + k.cost(req), nil
}

func checkExperiment(_ *Server, _ context.Context, ref *ExperimentRef) (int64, *apiError) {
	if _, err := experiments.Get(ref.ID); err != nil {
		return 0, notFound("unknown_experiment", "%v", err)
	}
	return experimentJobCost, nil
}

// checkBatch admits a batch job whole or not at all: unlike the
// synchronous endpoint's per-item envelopes, there is no caller waiting
// to read partial failures.
func (s *Server) checkBatch(ctx context.Context, req *BatchRequest) (int64, *apiError) {
	if apiErr := s.checkBatchSize(req); apiErr != nil {
		return 0, apiErr
	}
	var cost int64
	for i, item := range req.Requests {
		if item.Op == "batch" {
			return 0, unprocessable("invalid_argument", "batch item %d: batches do not nest", i)
		}
		_, c, apiErr := s.admitOp(ctx, item.Op, item.Request)
		if apiErr != nil {
			return 0, unprocessable("invalid_argument",
				"batch item %d (%s): %s", i, item.Op, apiErr.Body.Message)
		}
		cost += c
	}
	return cost, nil
}
