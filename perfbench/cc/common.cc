#include "common.hh"

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/json.hh"
#include "tracer.hh"

namespace perfbench {

using sparsepipe::obs::jsonEscape;
using sparsepipe::obs::jsonNumber;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

namespace {

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
}

rusage
selfUsage()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage;
}

} // namespace

PhaseTimer::PhaseTimer()
{
    const rusage usage = selfUsage();
    user_s_ = seconds(usage.ru_utime);
    sys_s_ = seconds(usage.ru_stime);
    minor_faults_ = usage.ru_minflt;
    start_ns_ = nowNs();
}

void
PhaseTimer::stop(WorkloadResult &result) const
{
    result.wall_s = secondsSince(start_ns_);
    const rusage usage = selfUsage();
    const double user = seconds(usage.ru_utime) - user_s_;
    const double sys = seconds(usage.ru_stime) - sys_s_;
    result.cpu_s = user + sys;
    // Linux reports ru_maxrss in KiB.
    result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    result.info["user_s"] = user;
    result.info["sys_s"] = sys;
    result.info["minor_faults"] =
        static_cast<double>(usage.ru_minflt - minor_faults_);
}

void
WorkloadResult::check(bool ok, const std::string &failure)
{
    ++attempted;
    if (ok) {
        ++passed;
        return;
    }
    if (failures.size() < 20)
        failures.push_back(failure);
}

namespace {

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string
numberMap(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[key, value] : values) {
        if (out.size() > 1)
            out += ",";
        out += "\"" + jsonEscape(key) + "\":" + jsonNumber(value);
    }
    return out + "}";
}

std::string
numberList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + jsonNumber(values[i]);
    return out + "]";
}

} // namespace

std::string
toJsonLine(const WorkloadOptions &opts, const WorkloadResult &r)
{
    std::string out = "{\"workload\":\"" + jsonEscape(opts.workload) +
                      "\",\"seed\":\"" + std::to_string(opts.seed) +
                      "\",\"traced\":" + (opts.traced ? "true" : "false");
    out += ",\"setup_s\":" + jsonNumber(r.setup_s);
    out += ",\"wall_s\":" + jsonNumber(r.wall_s);
    out += ",\"cpu_s\":" + jsonNumber(r.cpu_s);
    out += ",\"peak_rss_mb\":" + jsonNumber(r.peak_rss_mb);
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"passed\":" + std::to_string(r.passed);
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        out += (i ? ",\"" : "\"") + jsonEscape(r.failures[i]) + "\"";
    out += "],\"lat_ms\":" + numberList(r.lat_ms);
    out += ",\"headlines\":" + numberMap(r.headlines);
    out += ",\"fidelity\":" + numberMap(r.fidelity);
    out += ",\"sim_digest\":\"" + r.sim_digest + "\"";
    out += ",\"layers\":" + numberMap(r.layers);
    out += ",\"samples\":{";
    bool first = true;
    for (const auto &[key, values] : r.samples) {
        out += (first ? "\"" : ",\"") + jsonEscape(key) +
               "\":" + numberList(values);
        first = false;
    }
    out += "},\"info\":" + numberMap(r.info) + "}";
    return out;
}

std::string
writeSimMetrics(const WorkloadOptions &opts,
                const sparsepipe::obs::MetricsRegistry &reg)
{
    const std::string path = opts.out_dir + "/" + opts.workload +
                             (opts.traced ? ".traced" : "") +
                             ".sim.metrics.json";
    reg.writeFile(path);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, fnv1a(reg.toJson()));
    return digest;
}

void
addTraceLayers(const Tracer &tracer, WorkloadResult &result)
{
    for (const auto &[name, ms] : tracer.layerSelfMs())
        result.layers[name + "_ms"] = ms;
    result.layers["other_ms"] = tracer.taskSelfMs();
    double accounted = result.layers["other_ms"];
    for (const auto &[name, ms] : tracer.layerSelfMs())
        accounted += ms;
    result.info["busy_ms"] = tracer.busyMs();
    result.info["accounted_ms"] = accounted;
}

} // namespace perfbench
