package server

// Routing-key predictors for the cluster gateway (internal/cluster).
// The gateway must place a request on the node that owns its state
// before that state exists: a sweep body must land where its memo entry
// lives, a job submit where GET /v1/jobs/{id} will later look. Both
// derivations already exist inside this package (the sweep memo key,
// the job submit's canonicalization); these wrappers expose them without
// exposing the machinery. They are prediction-only — no cache is
// touched, nothing is admitted — and they are deliberately lenient:
// a body this package would reject 4xx returns ok=false and the
// gateway falls back to load-based placement, where any node produces
// the identical canonical error envelope.

import (
	"bytes"

	"balarch/internal/jobs"
)

// RouteKeyForSweep derives the sweep-memo cache key a POST /v1/sweep
// body will be stored (or found) under: the same canonical string
// runSweep computes, so equal sweeps — whatever their whitespace, field
// order, or params permutation — map to one key and therefore one node.
// ok is false when the body does not decode or validate as a sweep; the
// caller should then place the request by load instead.
func RouteKeyForSweep(body []byte) (key string, ok bool) {
	var req SweepRequest
	if apiErr := strictDecodeJSON(bytes.NewReader(body), &req); apiErr != nil {
		return "", false
	}
	if _, apiErr := validateSweep(&req); apiErr != nil {
		// Validation also normalizes nothing in req, but an invalid sweep
		// has no memo entry anywhere — placement is immaterial.
		return "", false
	}
	return sweepCacheKey(&req, sortedCopy(req.Params)), true
}

// RouteIDForJob derives the job id POST /v1/jobs will assign to a
// submit body: the op row strict-decodes the request and re-marshals it
// exactly as handleJobSubmit does, then jobs.IDFor hashes it. The row's
// check (unknown computations, batch caps) is skipped on purpose: the id
// depends only on the canonical bytes, and a body every node would
// reject routes anywhere. ok is false when the envelope or the op's DTO
// does not decode.
func RouteIDForJob(body []byte) (id string, ok bool) {
	var env JobSubmitRequest
	if apiErr := strictDecodeJSON(bytes.NewReader(body), &env); apiErr != nil || len(env.Request) == 0 {
		return "", false
	}
	o := findOp(opTable, env.Op)
	if o == nil {
		return "", false
	}
	req, apiErr := o.decode(env.Request)
	if apiErr != nil {
		return "", false
	}
	id, _ = jobs.IDFor(env.Op, mustMarshal(req))
	return id, true
}
