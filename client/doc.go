// Package client is the public Go client for spantreed and the one
// definition of its wire protocol: the request bodies (RegisterRequest,
// SampleRequest, StreamRequest) and the NDJSON stream line (Line) that the
// daemon decodes and encodes in both of its modes. It offers a plain
// single-endpoint HTTPClient and a FailoverClient that spreads work over a
// replica set; the router mode of spantreed is a FailoverClient behind an
// HTTP front.
//
// The failover behaviors lean on the serving tier's determinism contract —
// the tree at index i is a pure function of (graph, sampler spec, seed base,
// i) — so they are safe by construction:
//
//   - Retries and failover re-issue a request to another replica; because
//     replicas are byte-identical, a retried request can never return
//     different bytes than the first attempt would have.
//   - Hedging duplicates a slow unary request to the next replica after a
//     latency-quantile-derived delay and takes whichever answer lands first;
//     both answers are identical, so hedging only ever changes latency.
//   - A stream that dies mid-flight resumes on the next replica from the
//     first undelivered index (the server's start_index window), and results
//     are deduplicated by sample index — the consumer sees every index in
//     the requested window exactly once, byte-identical to an uninterrupted
//     single-replica stream.
//
// Backoff honors 429 responses: the server's Retry-After header (and the
// retry_after_seconds field of its JSON body) overrides the client's own
// jittered exponential schedule, so a congested graph drains at the rate the
// server measured instead of a blind constant.
package client
