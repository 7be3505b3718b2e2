/**
 * @file
 * The serve wire protocol: newline-delimited JSON (one object per
 * line) over TCP.
 *
 * Request lines name the work declaratively:
 *
 *   {"op":"run","id":"r1","app":"pr","dataset":"wi","iters":8,
 *    "reorder":"vanilla","seed":"0x5eed5eed","deadline_ms":2000,
 *    "buffer_kb":1536,"iso":"gpu","blocked":true}
 *
 * Only "op", "app" and "dataset" are required for a run; everything
 * else has the CLI's defaults.  {"op":"ping"} health-checks without
 * simulating.  A connection whose first bytes are "GET " is treated
 * as an HTTP/1.0 scrape instead (server.hh), so `curl
 * http://host:port/metrics` works.
 *
 * Response lines echo the id and carry either the run result or a
 * Status:
 *
 *   {"id":"r1","ok":true,"coalesced":false,"cycles":123,
 *    "nnz":456,"elapsed_us":789.0}
 *   {"id":"r1","ok":false,"code":"resource-exhausted",
 *    "error":"...","retry_after_ms":50}
 *
 * `retry_after_ms` is the Retry-After of this protocol: > 0 on shed
 * responses (back off, then retry), an explicit 0 on
 * deadline-exceeded / cancelled responses (safe to retry immediately
 * with a fresh budget — runs are idempotent by coalesce key), and
 * absent on terminal errors (retrying will not help).
 */

#ifndef SPARSEPIPE_SERVE_PROTOCOL_HH
#define SPARSEPIPE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "prep/reorder.hh"
#include "util/status.hh"

namespace sparsepipe::serve {

/** One decoded request line. */
struct Request
{
    enum class Op { Run, Ping };

    Op op = Op::Run;
    /** Client-chosen correlation id, echoed verbatim. */
    std::string id;
    std::string app = "pr";
    std::string dataset;
    long long iters = 0; ///< 0 = the app's default
    ReorderKind reorder = ReorderKind::Vanilla;
    std::uint64_t seed = 0x5eed5eedULL;
    /** Per-request deadline; 0 = none. */
    long long deadline_ms = 0;
    /** On-chip buffer override, at most 2^20; 0 keeps the config
     *  default. */
    long long buffer_kb = 0;
    bool iso_cpu = false;
    /** Derive bytes/nz from the blocked layout (CLI default). */
    bool blocked = true;
    /** Cycle backend name, validated against the registry. */
    std::string backend = "sparsepipe";
};

/** One encoded / decoded response line. */
struct Response
{
    std::string id;
    /** Ok, or why the request failed. */
    Status status;
    /** This response reused another request's in-flight run. */
    bool coalesced = false;
    /**
     * Backoff hint: > 0 on shed responses, 0 (encoded explicitly)
     * on DeadlineExceeded / Cancelled, omitted otherwise.
     */
    long long retry_after_ms = 0;
    long long cycles = 0;
    long long nnz = 0;
    /** Server-side wall time from admission to completion. */
    double elapsed_us = 0.0;
};

/** Decode one request line (InvalidInput names the defect). */
StatusOr<Request> parseRequest(const std::string &line);

/** Encode a request as a single line (no trailing newline). */
std::string encodeRequest(const Request &req);

/** Encode a response as a single line (no trailing newline). */
std::string encodeResponse(const Response &resp);

/** Decode one response line. */
StatusOr<Response> parseResponse(const std::string &line);

/**
 * The coalescing identity of a run request: every field that could
 * change the simulation's outcome, excluding the id and deadline
 * (two requests differing only there share one run).
 */
std::string coalesceKey(const Request &req);

} // namespace sparsepipe::serve

#endif // SPARSEPIPE_SERVE_PROTOCOL_HH
