/**
 * @file
 * serve_closed: an in-process serve::Server under a closed loop of
 * client connections over loopback.
 */

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "runner/thread_pool.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "script.hh"
#include "workloads.hh"

namespace perfbench {

using namespace sparsepipe;
using Kind = Tracer::Kind;

namespace {

/** Client connections of the closed loop (3 measured steadiest). */
constexpr int kClients = 3;
/** Script items per process; 20% go out as pairs. */
constexpr std::size_t kScriptItems = 360;

serve::Request
serveRequest(const ServeKey &key, std::uint64_t seed, std::string id)
{
    serve::Request req;
    req.id = std::move(id);
    req.app = key.app;
    req.dataset = key.dataset;
    req.seed = seed;
    return req;
}

/** What one request of the timed phase saw. */
struct Outcome
{
    bool sent = false;
    std::string failure;
    double latency_ms = 0.0;
    double server_ms = 0.0;
    bool coalesced = false;
    long long cycles = 0;
};

/**
 * The closed loop: each client sends its next request when the reply
 * to the previous one arrives.  A paired item is held until a second
 * client is free, then both send it at the same instant, so the pair
 * coalesces on a known share of requests rather than by chance.
 */
class ClosedLoop
{
  public:
    ClosedLoop(const std::vector<ScriptItem> &script,
               const ListenAddress &addr, std::uint64_t seed,
               Tracer *tracer)
        : script_(script), addr_(addr), seed_(seed), tracer_(tracer),
          partnered_(script.size(), 0), first_(script.size()),
          second_(script.size())
    {
    }

    void run()
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([this] { clientLoop(); });
        for (std::thread &t : clients)
            t.join();
    }

    /** Outcomes in script order: first copy, then (pairs) second. */
    std::vector<Outcome> outcomes() const
    {
        std::vector<Outcome> out;
        for (std::size_t i = 0; i < script_.size(); ++i) {
            out.push_back(first_[i]);
            if (script_[i].paired)
                out.push_back(second_[i]);
        }
        return out;
    }

  private:
    void clientLoop()
    {
        std::optional<serve::Client> client;
        while (true) {
            std::size_t item = 0;
            bool second = false;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (pending_ != kNone) {
                    item = pending_;
                    second = true;
                    partnered_[item] = 1;
                    pending_ = kNone;
                    cv_.notify_all();
                } else if (next_ < script_.size()) {
                    item = next_++;
                    if (script_[item].paired) {
                        pending_ = item;
                        cv_.wait(lock, [&] { return partnered_[item] != 0; });
                    }
                } else {
                    return;
                }
            }
            send(client, item, second);
        }
    }

    void send(std::optional<serve::Client> &client, std::size_t item,
              bool second)
    {
        Outcome &out = second ? second_[item] : first_[item];
        const std::string id =
            "r" + std::to_string(item) + (second ? "b" : "a");
        out.sent = true;
        if (!client) {
            StatusOr<serve::Client> fresh = serve::Client::connect(addr_);
            if (!fresh.ok()) {
                out.failure = fresh.status().toString();
                return;
            }
            client.emplace(std::move(fresh).value());
        }
        const serve::Request req =
            serveRequest(serveCatalogue()[script_[item].key], seed_, id);
        const std::int64_t start = nowNs();
        StatusOr<serve::Response> resp = [&] {
            Tracer::Scope task(tracer_, "task.call", Kind::Task, id);
            return client->call(req);
        }();
        out.latency_ms = static_cast<double>(nowNs() - start) / 1e6;
        if (!resp.ok()) {
            out.failure = resp.status().toString();
            client.reset(); // reconnect for the next request
            return;
        }
        if (!resp->status.ok()) {
            out.failure = resp->status.toString();
            return;
        }
        out.server_ms = resp->elapsed_us / 1e3;
        out.coalesced = resp->coalesced;
        out.cycles = resp->cycles;
    }

    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    const std::vector<ScriptItem> &script_;
    const ListenAddress addr_;
    const std::uint64_t seed_;
    Tracer *const tracer_;

    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t next_ = 0;
    std::size_t pending_ = kNone;
    std::vector<char> partnered_;

    // Each slot is written by the one client that sent it.
    std::vector<Outcome> first_;
    std::vector<Outcome> second_;
};

double
metric(obs::MetricsRegistry &reg, const char *key)
{
    return reg.has(key) ? reg.get(key) : 0.0;
}

} // namespace

WorkloadResult
runServeClosed(const WorkloadOptions &opts)
{
    WorkloadResult result;
    Tracer tracer;
    Tracer *const tr = opts.traced ? &tracer : nullptr;
    const std::vector<ServeKey> &catalogue = serveCatalogue();

    // Set-up: start the server (2 pool workers, default LRU bounds),
    // run every key directly through the server's Session for the
    // expected cycles, then warm the server with one request per key.
    // A failed reference run leaves its key's expected cycles at -1,
    // which every response for it then fails against.
    std::optional<serve::Server> server;
    std::vector<long long> expected(catalogue.size(), -1);
    ListenAddress addr;
    {
        Tracer::Scope phase(tr, "phase.setup", Kind::Phase);
        serve::ServerConfig config;
        config.jobs = opts.jobs > 0 ? opts.jobs : 2;
        server.emplace(config);
        if (Status status = server->start(); !status.ok()) {
            result.check(false, "server start: " + status.toString());
            return result;
        }
        addr.port = server->port();

        // Reference runs on two threads, the server's two workers idle.
        // Untraced, they go through the Session the server serves from,
        // so the process holds one copy of each prepared case and
        // peak_rss_mb is the server's.
        api::Session &session = server->session();
        LayeredPipeline pipe(tr, opts.seed);
        std::vector<std::optional<SimStats>> stats(catalogue.size());
        {
            runner::ThreadPool pool(2);
            for (std::size_t k = 0; k < catalogue.size(); ++k) {
                pool.submit([&, k] {
                    const ServeKey &key = catalogue[k];
                    api::RunRequest req;
                    req.app = key.app;
                    req.dataset = key.dataset;
                    req.seed = opts.seed;
                    try {
                        if (!opts.traced) {
                            stats[k] = session.run(req).value().stats;
                            return;
                        }
                        Tracer::Scope task(tr, "task.setup", Kind::Task,
                                           key.app + "-" + key.dataset);
                        stats[k] = pipe.run(
                            req, pipe.prepare(key.app, key.dataset));
                    } catch (...) {
                        stats[k].reset();
                    }
                });
            }
        }
        for (std::size_t k = 0; k < catalogue.size(); ++k) {
            if (!stats[k])
                continue;
            expected[k] = static_cast<long long>(stats[k]->cycles);
            if (opts.traced)
                addSimCounters(*stats[k], false, result);
        }

        // Warm the server: every key once, through the same clients.
        std::vector<ScriptItem> warm_script;
        for (std::size_t k = 0; k < catalogue.size(); ++k)
            warm_script.push_back({k, false});
        ClosedLoop warm(warm_script, addr, opts.seed, tr);
        warm.run();
        const std::vector<Outcome> warmed = warm.outcomes();
        for (std::size_t k = 0; k < catalogue.size(); ++k)
            result.check(warmed[k].failure.empty() &&
                             warmed[k].cycles == expected[k],
                         "warm " + catalogue[k].app + "-" +
                             catalogue[k].dataset +
                             " failed or disagrees with Session::run: " +
                             warmed[k].failure);
    }
    result.setup_s = secondsSince(opts.spawn_ns);

    // Timed: the closed loop over the seeded script.
    const std::vector<ScriptItem> script =
        makeServeScript(opts.seed, kScriptItems);
    ClosedLoop loop(script, addr, opts.seed, tr);
    obs::MetricsRegistry before, after;
    server->fillMetrics(before);
    const PhaseTimer timer;
    {
        Tracer::Scope phase(tr, "phase.timed", Kind::Phase);
        loop.run();
    }
    timer.stop(result);
    server->fillMetrics(after);
    server->requestDrain();
    server->join();

    // Checks: every response is ok and carries the cycles a direct
    // Session::run of its key gave.  Coalescing is reported, not
    // checked: a pair that misses overlap is still a correct answer.
    obs::MetricsRegistry reg;
    const std::vector<Outcome> outcomes = loop.outcomes();
    std::size_t index = 0, coalesced = 0;
    for (std::size_t i = 0; i < script.size(); ++i) {
        const std::size_t copies = script[i].paired ? 2 : 1;
        const ServeKey &key = catalogue[script[i].key];
        for (std::size_t c = 0; c < copies; ++c, ++index) {
            const Outcome &out = outcomes[index];
            const std::string id =
                "r" + std::to_string(i) + (c ? "b" : "a");
            std::string bad = out.failure;
            if (bad.empty() && !out.sent)
                bad = "never sent";
            else if (bad.empty() && out.cycles != expected[script[i].key])
                bad = "cycles " + std::to_string(out.cycles) +
                      ", Session::run gave " +
                      std::to_string(expected[script[i].key]);
            result.check(bad.empty(),
                         id + " " + key.app + "-" + key.dataset + ": " + bad);
            if (!bad.empty())
                continue;
            reg.set("request." + id + ".cycles",
                    static_cast<double>(out.cycles));
            result.lat_ms.push_back(out.latency_ms);
            result.samples["serve.server_ms"].push_back(out.server_ms);
            result.samples["serve.transport_ms"].push_back(out.latency_ms -
                                                           out.server_ms);
            coalesced += out.coalesced ? 1 : 0;
        }
    }
    result.sim_digest = writeSimMetrics(opts, reg);

    if (!opts.traced) {
        addPreparedCacheStats(server->session(), result);
        return result;
    }
    const double requests = static_cast<double>(outcomes.size());
    result.layers["serve.sim_runs"] = metric(after, "serve.sim_runs") -
                                      metric(before, "serve.sim_runs");
    result.layers["serve.coalesced_pct"] =
        requests > 0 ? 100.0 * static_cast<double>(coalesced) / requests
                     : 0.0;
    result.layers["serve.shed_total"] = metric(after, "serve.shed_total") -
                                        metric(before, "serve.shed_total");
    addTraceLayers(tracer, result);
    tracer.writeChromeTrace(opts.out_dir + "/serve_closed.trace.json");
    return result;
}

} // namespace perfbench
