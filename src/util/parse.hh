/**
 * @file
 * Strict numeric parsing for command-line flags and job specs.
 *
 * std::atoll-style parsing silently turns `--iters abc` into 0; the
 * helpers here accept a token only when the *entire* string is a
 * well-formed number in range.  Integers use strtoll/strtoull with
 * base 0, so plain decimal and 0x-prefixed hex both work (seeds are
 * conventionally hex).
 */

#ifndef SPARSEPIPE_UTIL_PARSE_HH
#define SPARSEPIPE_UTIL_PARSE_HH

#include <limits>
#include <string>

#include "util/status.hh"

namespace sparsepipe {

/**
 * Parse a signed 64-bit integer (base 10 or 0x hex).
 * @return false if `text` is empty, has trailing garbage, or
 * overflows; `out` is untouched on failure.
 */
bool tryParseI64(const std::string &text, long long &out);

/**
 * Parse an unsigned 64-bit integer (base 10 or 0x hex).  Rejects
 * negative inputs (strtoull would silently wrap them).
 */
bool tryParseU64(const std::string &text, unsigned long long &out);

/** Parse a finite double; same whole-string strictness. */
bool tryParseF64(const std::string &text, double &out);

/**
 * Flag-parsing wrappers: the value, or InvalidInput naming the flag,
 * e.g. parseI64Flag("--iters", "abc") yields "flag --iters wants an
 * integer, got 'abc'".  The signed and floating forms also reject a
 * value outside [lo, hi] ("flag --iters wants an integer >= 0, got
 * '-1'").  CLI mains map the error to the usage exit code
 * (kExitUsage); they never die inside the parser.
 */
StatusOr<long long>
parseI64Flag(const char *flag, const std::string &text,
             long long lo = std::numeric_limits<long long>::min(),
             long long hi = std::numeric_limits<long long>::max());
StatusOr<unsigned long long> parseU64Flag(const char *flag,
                                          const std::string &text);
StatusOr<double>
parseF64Flag(const char *flag, const std::string &text,
             double lo = std::numeric_limits<double>::lowest(),
             double hi = std::numeric_limits<double>::max());

/** A validated TCP listen / connect address. */
struct ListenAddress
{
    /** Numeric IPv4 address or "localhost". */
    std::string host = "127.0.0.1";
    /** 0 asks the kernel for an ephemeral port. */
    int port = 0;
};

/**
 * Parse "host:port" (":port" and a bare "port" default the host to
 * 127.0.0.1).  The host must be a dotted-quad IPv4 literal or
 * "localhost" — the serve daemon deliberately takes no DNS
 * dependency — and the port a decimal integer in [0, 65535].
 * @return InvalidInput naming the defect otherwise.
 */
StatusOr<ListenAddress> parseListenAddress(const std::string &text);

} // namespace sparsepipe

#endif // SPARSEPIPE_UTIL_PARSE_HH
