/**
 * @file
 * The Sparsepipe simulation daemon.
 *
 * Serves concurrent run requests over the NDJSON protocol and
 * answers HTTP /metrics scrapes from one long-lived process, so the
 * prepared-operand caches amortize across every tenant.
 *
 * Examples:
 *   sparsepipe_serve --listen 127.0.0.1:7077
 *   sparsepipe_serve --listen :0 --port-file /tmp/sp.port --jobs 8
 *   echo '{"op":"run","app":"pr","dataset":"wi"}' | nc 127.0.0.1 7077
 *   curl http://127.0.0.1:7077/metrics
 *
 * Shutdown: the first SIGINT/SIGTERM drains (stop accepting, finish
 * in-flight runs, exit 0); a second SIGINT aborts in-flight
 * simulations through the CancelToken chain and still exits 0 once
 * everything unwinds.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "serve/server.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/status.hh"

using namespace sparsepipe;

namespace {

/** First signal = drain, second = abort.  Handlers may only flip
 *  async-signal-safe state, so the tokens are process globals the
 *  server polls. */
CancelToken g_drain;
CancelToken g_abort;

extern "C" void
onShutdownSignal(int)
{
    if (g_drain.cancelled())
        g_abort.cancel();
    g_drain.cancel();
}

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "sparsepipe_serve: %s (try --help)\n",
                 message.c_str());
    std::exit(kExitUsage);
}

template <typename T>
T
flagValue(StatusOr<T> parsed)
{
    if (!parsed.ok())
        usageError(parsed.status().toString());
    return std::move(parsed).value();
}

/** An int flag of at least `lo`: exit 2 below it or past INT_MAX. */
int
intFlag(const char *flag, const std::string &text, int lo)
{
    return static_cast<int>(flagValue(parseI64Flag(
        flag, text, lo, std::numeric_limits<int>::max())));
}

void
printHelp()
{
    std::printf(
        "usage: sparsepipe_serve [options]\n"
        "\n"
        "  --listen HOST:PORT   bind address (default 127.0.0.1:0;\n"
        "                       port 0 picks an ephemeral port)\n"
        "  --port-file PATH     write the bound port to PATH\n"
        "  --jobs N             simulation worker threads\n"
        "  --queue-depth N      max concurrently admitted runs\n"
        "                       (default 64)\n"
        "  --memory-budget-mb N estimated-resident budget\n"
        "                       (default 0 = unlimited)\n"
        "  --retry-after-ms N   back-off hint on shed responses\n"
        "  --deadline-ms N      default per-request deadline\n"
        "  --idle-timeout-ms N  close connections idle this long\n"
        "                       (default 0 = never)\n"
        "  --line-timeout-ms N  close connections whose request\n"
        "                       line stalls this long (slow-loris\n"
        "                       defense; default 0 = never)\n"
        "  --max-request-bytes N cap on one request line\n"
        "                       (default 1048576)\n"
        "  --max-requests-per-conn N close keep-alive connections\n"
        "                       after N requests (default 0 = never)\n"
        "  --cache-prepared N   LRU bound on prepared operands\n"
        "\n"
        "Protocol: one JSON object per line, e.g.\n"
        "  {\"op\":\"run\",\"app\":\"pr\",\"dataset\":\"wi\"}\n"
        "Scrape: GET /metrics (HTTP/1.0) on the same port.\n"
        "SIGINT drains and exits 0; a second SIGINT aborts "
        "in-flight runs.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig config;
    config.parent_cancel = &g_abort;
    std::string port_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("flag " + arg + " wants a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            printHelp();
            return kExitOk;
        } else if (arg == "--listen") {
            StatusOr<ListenAddress> parsed =
                parseListenAddress(next());
            if (!parsed.ok())
                usageError(parsed.status().toString());
            config.listen = *parsed;
        } else if (arg == "--port-file") {
            port_file = next();
        } else if (arg == "--jobs") {
            config.jobs = intFlag("--jobs", next(), 1);
        } else if (arg == "--queue-depth") {
            config.admission.max_in_flight =
                intFlag("--queue-depth", next(), 0);
        } else if (arg == "--memory-budget-mb") {
            // Bounded so the byte count fits in 64 bits.
            config.admission.memory_budget_bytes =
                static_cast<std::uint64_t>(flagValue(parseI64Flag(
                    "--memory-budget-mb", next(), 0,
                    (1LL << 44) - 1))) << 20;
        } else if (arg == "--retry-after-ms") {
            config.admission.retry_after_ms =
                intFlag("--retry-after-ms", next(), 0);
        } else if (arg == "--deadline-ms") {
            config.default_deadline_ms =
                flagValue(parseI64Flag("--deadline-ms", next(), 0));
        } else if (arg == "--idle-timeout-ms") {
            config.idle_timeout_ms =
                intFlag("--idle-timeout-ms", next(), 0);
        } else if (arg == "--line-timeout-ms") {
            config.line_timeout_ms =
                intFlag("--line-timeout-ms", next(), 0);
        } else if (arg == "--max-request-bytes") {
            config.max_request_bytes = static_cast<std::size_t>(
                flagValue(parseU64Flag("--max-request-bytes",
                                       next())));
        } else if (arg == "--max-requests-per-conn") {
            config.max_requests_per_conn = flagValue(
                parseI64Flag("--max-requests-per-conn", next(), 0));
        } else if (arg == "--cache-prepared") {
            config.prepared_cache_capacity = static_cast<std::size_t>(
                flagValue(parseU64Flag("--cache-prepared", next())));
        } else {
            usageError("unknown flag '" + arg + "'");
        }
    }

    serve::Server server(config);
    if (Status status = server.start(); !status.ok()) {
        std::fprintf(stderr, "sparsepipe_serve: %s\n",
                     status.toString().c_str());
        return kExitRuntime;
    }

    std::signal(SIGINT, onShutdownSignal);
    std::signal(SIGTERM, onShutdownSignal);

    sp_inform("sparsepipe_serve: listening on %s:%d",
              config.listen.host.c_str(), server.port());
    if (!port_file.empty()) {
        FILE *f = std::fopen(port_file.c_str(), "w");
        if (!f) {
            std::fprintf(stderr,
                         "sparsepipe_serve: cannot write %s\n",
                         port_file.c_str());
            return kExitRuntime;
        }
        std::fprintf(f, "%d\n", server.port());
        std::fclose(f);
    }

    // Wait for the first shutdown signal, then drain.  The server's
    // own drain token mirrors the signal token: poll cheaply here,
    // all the real work happens on server threads.
    while (!g_drain.cancelled()) {
        timespec nap{0, 50 * 1000 * 1000};
        nanosleep(&nap, nullptr);
    }
    sp_inform("sparsepipe_serve: draining");
    server.requestDrain();
    server.join();

    obs::MetricsRegistry reg;
    server.fillMetrics(reg);
    sp_inform("sparsepipe_serve: drained (%lld requests, %lld shed, "
              "%lld coalesced); bye",
              static_cast<long long>(
                  reg.get("serve.requests_total")),
              static_cast<long long>(reg.get("serve.shed_total")),
              static_cast<long long>(
                  reg.get("serve.coalesced_total")));
    return kExitOk;
}
