/**
 * @file
 * Backend comparison: cycles and the exact stall partition for every
 * registered cycle-level backend over the Table I matrices.
 *
 * The same PageRank program runs under each backend so the numbers
 * isolate the architecture: Sparsepipe's inter-operator OEI dataflow
 * keeps intermediate vectors on chip across fused operators, while
 * the Gamma-style row-wise backend re-reads them through its fiber
 * cache every pass.  Each backend's attribution partition must
 * reconcile exactly with its total cycles; a case that does not is
 * fatal, which is the check the nightly fuzz-sweep job runs.
 */

#include <cstdio>
#include <string>

#include "backend/backend.hh"
#include "harness.hh"
#include "util/logging.hh"

using namespace sparsepipe;
using namespace sparsepipe::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    // The backend is the axis this bench sweeps.
    if (args.backend) {
        std::fprintf(stderr, "bench_backend_compare runs every "
                             "registered backend; --backend does not "
                             "apply (try --help)\n");
        return kExitUsage;
    }
    const std::string app = "pr";

    printHeader("Backend comparison: cycles and stall partition per "
                "registered backend (" + app + ")",
                "sparsepipe reuses intermediates across operators; "
                "gamma re-streams them per pass");

    const std::vector<backend::BackendKind> &backends =
        backend::registeredBackends();
    const std::vector<std::string> datasets = allDatasets();

    // One grid per backend through a single pool; results land in
    // backend-major, dataset-minor order.
    std::vector<CaseSpec> specs;
    for (backend::BackendKind kind : backends) {
        RunConfig cfg;
        applyArgOverrides(args, cfg);
        cfg.backend = kind;
        for (const std::string &dataset : datasets)
            specs.push_back({app, dataset, cfg,
                             std::string(backend::backendName(kind)) +
                                 "-" + dataset});
    }
    const std::vector<CaseResult> results = runSweep(specs, args.jobs);

    auto at = [&](std::size_t b, std::size_t d) -> const CaseResult & {
        return results[b * datasets.size() + d];
    };

    // The partition is the product being compared, so a backend
    // whose buckets do not reconcile would poison every ratio
    // downstream: fail loudly instead of emitting bad metrics.
    for (std::size_t b = 0; b < backends.size(); ++b)
        for (std::size_t d = 0; d < datasets.size(); ++d) {
            const SimStats &st = at(b, d).sp;
            if (st.attribution.totalCycles() != st.cycles)
                sp_fatal("%s on %s: attribution buckets sum to %llu "
                         "but the run took %llu cycles",
                         backend::backendName(backends[b]),
                         datasets[d].c_str(),
                         static_cast<unsigned long long>(
                             st.attribution.totalCycles()),
                         static_cast<unsigned long long>(st.cycles));
        }

    TextTable table;
    std::vector<std::string> header = {"matrix"};
    for (backend::BackendKind kind : backends) {
        header.push_back(std::string(backend::backendName(kind)) +
                         " cycles");
        header.push_back("stall %");
    }
    if (backends.size() >= 2)
        header.push_back("gamma/sparsepipe");
    table.addRow(header);
    for (std::size_t d = 0; d < datasets.size(); ++d) {
        std::vector<std::string> row = {datasets[d]};
        for (std::size_t b = 0; b < backends.size(); ++b) {
            const SimStats &st = at(b, d).sp;
            const double stall =
                st.cycles == 0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(st.cycles -
                                              st.attribution.compute) /
                          static_cast<double>(st.cycles);
            row.push_back(std::to_string(st.cycles));
            row.push_back(TextTable::num(stall, 1));
        }
        if (backends.size() >= 2)
            row.push_back(TextTable::num(
                static_cast<double>(at(1, d).sp.cycles) /
                    static_cast<double>(at(0, d).sp.cycles),
                2));
        table.addRow(row);
    }
    table.print();

    if (!args.metrics_out.empty()) {
        obs::MetricsRegistry reg;
        // Every backend runs the same (app, dataset) keys; prefix
        // each case with its backend.
        for (std::size_t b = 0; b < backends.size(); ++b)
            for (std::size_t d = 0; d < datasets.size(); ++d) {
                CaseResult r = at(b, d);
                r.app = std::string(backend::backendName(backends[b])) +
                        "-" + r.app;
                recordCaseMetrics(reg, r);
            }
        writeMetrics(args, reg);
    }
    return 0;
}
