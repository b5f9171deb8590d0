package server

// Routing-key predictors for the cluster gateway (internal/cluster).
// The gateway must place a request on the node that owns its state
// before that state exists: a sweep body must land where its memo entry
// lives, a job submit where GET /v1/jobs/{id} will later look. Both
// derivations already exist inside this package (the sweep memo key,
// prepareJob's canonicalization); these wrappers expose them without
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
// submit body: the op-specific DTO is strict-decoded and re-marshaled
// exactly as prepareJob does, then fed through jobs.IDFor. Semantic
// validation (unknown computations, batch caps) is skipped on purpose —
// the id depends only on the canonical bytes, and a body every node
// would reject routes anywhere. ok is false when the envelope or the
// op's DTO does not decode.
func RouteIDForJob(body []byte) (id string, ok bool) {
	var env JobSubmitRequest
	if apiErr := strictDecodeJSON(bytes.NewReader(body), &env); apiErr != nil {
		return "", false
	}
	if len(env.Request) == 0 {
		return "", false
	}
	var canonical []byte
	switch env.Op {
	case "analyze":
		canonical, ok = canonicalJobBody[AnalyzeRequest](env.Request)
	case "rebalance":
		canonical, ok = canonicalJobBody[RebalanceRequest](env.Request)
	case "roofline":
		canonical, ok = canonicalJobBody[RooflineRequest](env.Request)
	case "sweep":
		canonical, ok = canonicalJobBody[SweepRequest](env.Request)
	case "experiment":
		canonical, ok = canonicalJobBody[ExperimentRef](env.Request)
	case "batch":
		canonical, ok = canonicalJobBody[BatchRequest](env.Request)
	default:
		return "", false
	}
	if !ok {
		return "", false
	}
	id, _ = jobs.IDFor(env.Op, canonical)
	return id, true
}

// canonicalJobBody decodes one op's raw body into its DTO and returns
// the canonical re-marshaled bytes — the same strict decode +
// mustCanonical pair prepareJob runs, so the predicted bytes are the
// admitted bytes.
func canonicalJobBody[T any](raw []byte) ([]byte, bool) {
	req, apiErr := decodeJobDTO[T](raw)
	if apiErr != nil {
		return nil, false
	}
	return mustCanonical(req), true
}
