/**
 * @file
 * Tests for the mapping explorer: spec parsing (including the
 * malformed-spec corpus, mirroring badmtx_test), deterministic
 * expansion, dataset round-trips, sweep resumption with torn-state
 * repair, cost-model fit determinism, and probe-set pruning.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/cost_model.hh"
#include "explore/dataset.hh"
#include "explore/driver.hh"
#include "explore/spec.hh"
#include "prep/features.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"

namespace sparsepipe::explore {
namespace {

// ---------------------------------------------------------------
// Spec parsing

const char *kGoldenSpec =
    "# comment line\n"
    "space golden\n"
    "apps pr bfs\n"
    "datasets gy g2\n"
    "iters 4\n"
    "seed 0x10\n"
    "axis buffer_kb list 256 0x200\n"
    "axis bandwidth_gb_s log-range 63 504 2\n"
    "axis reorder list none locality\n"
    "subset narrow buffer_kb=256 reorder=none\n";

TEST(ExploreSpec, GoldenParse)
{
    StatusOr<ExploreSpec> parsed = parseExploreSpec(kGoldenSpec);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const ExploreSpec &spec = parsed.value();
    EXPECT_EQ(spec.name, "golden");
    EXPECT_EQ(spec.apps, (std::vector<std::string>{"pr", "bfs"}));
    EXPECT_EQ(spec.datasets,
              (std::vector<std::string>{"gy", "g2"}));
    EXPECT_EQ(spec.iters, 4);
    EXPECT_EQ(spec.seed, 16u);
    ASSERT_EQ(spec.axes.size(), 3u);
    // Values are canonicalized: hex integers re-spelled in decimal,
    // the log ladder expanded.
    EXPECT_EQ(spec.axes[0].values,
              (std::vector<std::string>{"256", "512"}));
    EXPECT_EQ(spec.axes[1].values,
              (std::vector<std::string>{"63", "126", "252", "504"}));
    EXPECT_EQ(spec.axes[2].values,
              (std::vector<std::string>{"none", "locality"}));
    ASSERT_EQ(spec.subsets.size(), 1u);
    EXPECT_EQ(spec.subsets[0].name, "narrow");
    ASSERT_EQ(spec.subsets[0].pins.size(), 2u);
    EXPECT_EQ(spec.subsets[0].pins[0].first->name, "buffer_kb");
    EXPECT_EQ(spec.subsets[0].pins[0].second, "256");
}

TEST(ExploreSpec, FloatCanonicalizationIsSpellingIndependent)
{
    StatusOr<ExploreSpec> a = parseExploreSpec(
        "space s\napps pr\ndatasets gy\n"
        "axis bandwidth_gb_s list 504\n");
    StatusOr<ExploreSpec> b = parseExploreSpec(
        "space s\napps pr\ndatasets gy\n"
        "axis bandwidth_gb_s list 5.04e2\n");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().axes[0].values, b.value().axes[0].values);
}

// ---------------------------------------------------------------
// Malformed-spec corpus (mirrors badmtx_test)

struct Expected
{
    StatusCode code;
    /** Substring the status message must carry. */
    std::string needle;
};

/** Readable test names: without it gtest prints the struct's raw
 *  bytes, a heap pointer included, so names change per build. */
void
PrintTo(const Expected &e, std::ostream *os)
{
    *os << statusCodeName(e.code) << ": " << e.needle;
}

const std::map<std::string, Expected> &
corpusTable()
{
    static const std::map<std::string, Expected> table = {
        {"empty.spec",
         {StatusCode::InvalidInput, "no 'space' directive"}},
        {"no_space_first.spec",
         {StatusCode::InvalidInput, "first directive must be"}},
        {"duplicate_space.spec",
         {StatusCode::InvalidInput, "duplicate 'space'"}},
        {"unknown_directive.spec",
         {StatusCode::InvalidInput, "unknown directive"}},
        {"unknown_app.spec",
         {StatusCode::InvalidInput, "unknown application"}},
        {"unknown_dataset.spec",
         {StatusCode::InvalidInput, "unknown dataset"}},
        {"unknown_axis.spec",
         {StatusCode::InvalidInput, "unknown axis"}},
        {"duplicate_axis.spec",
         {StatusCode::InvalidInput, "duplicate axis"}},
        {"empty_axis.spec",
         {StatusCode::InvalidInput, "has no values"}},
        {"bad_axis_value.spec",
         {StatusCode::InvalidInput, "wants an integer"}},
        {"out_of_domain.spec",
         {StatusCode::InvalidInput, "outside"}},
        {"bad_range.spec",
         {StatusCode::InvalidInput, "LO <= HI"}},
        {"bad_logrange_factor.spec",
         {StatusCode::InvalidInput, "FACTOR > 1"}},
        {"range_on_enum.spec",
         {StatusCode::InvalidInput, "integer axis"}},
        {"subset_undeclared_axis.spec",
         {StatusCode::InvalidInput, "does not declare"}},
        {"subset_bad_pin.spec",
         {StatusCode::InvalidInput, "AXIS=VALUE"}},
        {"no_apps.spec",
         {StatusCode::InvalidInput, "declares no apps"}},
        {"no_datasets.spec",
         {StatusCode::InvalidInput, "declares no datasets"}},
        {"bad_iters.spec",
         {StatusCode::InvalidInput, "non-negative"}},
        {"unknown_backend.spec",
         {StatusCode::InvalidInput, "wants sparsepipe|gamma"}},
    };
    return table;
}

TEST(BadSpecCorpus, TableAndDirectoryAgree)
{
    namespace fs = std::filesystem;
    const fs::path dir = SPARSEPIPE_BADSPEC_DIR;
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::set<std::string> on_disk;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".spec")
            on_disk.insert(e.path().filename().string());
    for (const auto &[name, expected] : corpusTable())
        EXPECT_TRUE(on_disk.count(name))
            << name << " in the table but not on disk";
    for (const std::string &name : on_disk)
        EXPECT_TRUE(corpusTable().count(name))
            << name << " on disk but not in the table";
}

class BadSpecCase
    : public ::testing::TestWithParam<
          std::pair<const std::string, Expected>>
{
};

TEST_P(BadSpecCase, ParserAnswersWithPinnedStatus)
{
    const auto &[name, expected] = GetParam();
    const std::string path =
        std::string(SPARSEPIPE_BADSPEC_DIR) + "/" + name;
    StatusOr<ExploreSpec> parsed = readExploreSpec(path);
    ASSERT_FALSE(parsed.ok())
        << name << " parsed despite being malformed";
    EXPECT_EQ(parsed.status().code(), expected.code)
        << name << ": " << parsed.status().toString();
    EXPECT_NE(parsed.status().toString().find(expected.needle),
              std::string::npos)
        << name << ": " << parsed.status().toString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BadSpecCase, ::testing::ValuesIn(corpusTable()),
    [](const ::testing::TestParamInfo<
        std::pair<const std::string, Expected>> &info) {
        std::string label;
        for (char c : info.param.first)
            if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
                label += c;
        return label;
    });

// ---------------------------------------------------------------
// Expansion

ExploreSpec
goldenSpec()
{
    return parseExploreSpec(kGoldenSpec).value();
}

TEST(ExpandSpec, CrossProductCountWithoutSubsets)
{
    StatusOr<ExploreSpec> spec = parseExploreSpec(
        "space s\napps pr bfs\ndatasets gy g2\n"
        "axis buffer_kb list 256 512\n"
        "axis reorder list none vanilla locality\n");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(expandSpec(spec.value()).size(), 2u * 2 * 2 * 3);
}

TEST(ExpandSpec, SubsetsPinAndDeduplicate)
{
    // Two subsets whose expansions overlap completely on the pinned
    // plane must deduplicate by canonical key.
    StatusOr<ExploreSpec> spec = parseExploreSpec(
        "space s\napps pr\ndatasets gy\n"
        "axis buffer_kb list 256 512\n"
        "axis reorder list none vanilla\n"
        "subset a buffer_kb=256\n"
        "subset b buffer_kb=256 reorder=none\n");
    ASSERT_TRUE(spec.ok());
    const std::vector<ExploreJob> jobs = expandSpec(spec.value());
    // Subset a: 2 reorders at buffer 256.  Subset b's single job
    // duplicates one of them.
    EXPECT_EQ(jobs.size(), 2u);
    for (const ExploreJob &job : jobs)
        EXPECT_EQ(assignedValue(job, "buffer_kb"), "256");
}

TEST(ExpandSpec, DeterministicOrderAndRegistryOrderedKeys)
{
    const ExploreSpec spec = goldenSpec();
    const std::vector<ExploreJob> first = expandSpec(spec);
    const std::vector<ExploreJob> second = expandSpec(spec);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(jobKey(first[i]), jobKey(second[i]));
    // Keys list axes in registry order (buffer before bandwidth
    // before reorder) regardless of spec declaration order.
    const std::string key = jobKey(first[0]);
    EXPECT_LT(key.find("buffer_kb="), key.find("bandwidth_gb_s="));
    EXPECT_LT(key.find("bandwidth_gb_s="), key.find("reorder="));
}

TEST(ExpandSpec, CheckedInExampleExpandsAtLeast500Configs)
{
    StatusOr<ExploreSpec> spec = readExploreSpec(
        std::string(SPARSEPIPE_EXPLORE_EXAMPLES_DIR) +
        "/paper_space.spec");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    EXPECT_GE(expandSpec(spec.value()).size(), 500u);
}

TEST(ExpandSpec, JobHashIsStable)
{
    ExploreJob job;
    job.app = "pr";
    job.dataset = "gy";
    job.iters = 2;
    job.seed = 7;
    job.assign = {{"buffer_kb", "256"}};
    EXPECT_EQ(jobKey(job),
              "app=pr dataset=gy iters=2 seed=7 buffer_kb=256");
    // FNV-1a of the canonical key; a change here invalidates every
    // journal and dataset in the wild, so it is pinned.
    EXPECT_EQ(jobHash(job), jobHash(job));
    EXPECT_EQ(jobHash(job).size(), 16u);
}

TEST(ExpandSpec, RequestAppliesIsoBeforeBandwidth)
{
    // The bandwidth override must survive the iso technology swap
    // regardless of spec declaration order.
    StatusOr<ExploreSpec> spec = parseExploreSpec(
        "space s\napps pr\ndatasets gy\n"
        "axis bandwidth_gb_s list 100\n"
        "axis iso list cpu\n");
    ASSERT_TRUE(spec.ok());
    const std::vector<ExploreJob> jobs = expandSpec(spec.value());
    ASSERT_EQ(jobs.size(), 1u);
    const api::RunRequest req = requestFor(jobs[0]);
    EXPECT_EQ(req.sp.dram.bandwidth_gb_s, 100.0);
}

// ---------------------------------------------------------------
// Matrix features

TEST(MatrixFeaturesTest, HandComputedValuesAreExact)
{
    // 3x3: row 0 -> {0,2}, row 1 -> {1}, row 2 -> {} (3 nnz).
    CooMatrix coo(3, 3);
    coo.add(0, 0, 1.0);
    coo.add(0, 2, 1.0);
    coo.add(1, 1, 1.0);
    const MatrixFeatures f =
        computeMatrixFeatures(CsrMatrix::fromCoo(coo));
    EXPECT_EQ(f.rows, 3);
    EXPECT_EQ(f.cols, 3);
    EXPECT_EQ(f.nnz, 3);
    EXPECT_DOUBLE_EQ(f.row_mean, 1.0);
    // Row lengths {2,1,0}: variance 2/3, cv = sqrt(2/3)/1.
    EXPECT_DOUBLE_EQ(f.row_cv, std::sqrt(2.0 / 3.0));
    // Distances |0-0|+|2-0|+|1-1| = 2; mean 2/3, normalized by 3.
    EXPECT_DOUBLE_EQ(f.bandwidth_est, 2.0 / 3.0 / 3.0);
    EXPECT_DOUBLE_EQ(f.density, 3.0 / 9.0);
}

TEST(MatrixFeaturesTest, EmptyMatrixYieldsZerosNotNans)
{
    const MatrixFeatures f =
        computeMatrixFeatures(CsrMatrix::fromCoo(CooMatrix(4, 4)));
    EXPECT_EQ(f.nnz, 0);
    EXPECT_EQ(f.row_mean, 0.0);
    EXPECT_EQ(f.row_cv, 0.0);
    EXPECT_EQ(f.bandwidth_est, 0.0);
}

// ---------------------------------------------------------------
// Dataset round-trips

ExploreJob
sampleJob()
{
    ExploreJob job;
    job.app = "pr";
    job.dataset = "gy";
    job.iters = 2;
    job.seed = 42;
    job.assign = {{"buffer_kb", "256"}, {"reorder", "none"}};
    return job;
}

DatasetRow
sampleRow()
{
    MatrixFeatures mf;
    mf.rows = 100;
    mf.cols = 100;
    mf.nnz = 1000;
    mf.row_mean = 10.0;
    mf.row_cv = 0.5;
    mf.bandwidth_est = 0.25;
    mf.density = 0.1;
    api::RunReport report;
    report.stats.cycles = 12345;
    report.stats.iterations = 2;
    report.stats.converged = true;
    report.stats.dram_read_bytes = 4096;
    report.stats.dram_write_bytes = 2048;
    report.stats.bw_utilization = 0.75;
    report.host_ms = 1.5;
    return makeRow(sampleJob(), mf, report);
}

TEST(Dataset, RowRoundTripsThroughJson)
{
    const DatasetRow row = sampleRow();
    StatusOr<DatasetRow> back = rowFromJsonLine(rowToJsonLine(row));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    const DatasetRow &b = back.value();
    EXPECT_EQ(b.key, row.key);
    EXPECT_EQ(b.hash, row.hash);
    EXPECT_EQ(b.app, "pr");
    EXPECT_EQ(b.dataset, "gy");
    EXPECT_EQ(b.iters, 2);
    EXPECT_EQ(b.seed, "42");
    // Swept axes keep their values; unswept ones default-fill.
    EXPECT_EQ(b.configNum("buffer_kb", 0), 256.0);
    EXPECT_EQ(b.configEnum("reorder"), "none");
    EXPECT_EQ(b.configNum("pe_per_core", 0), 1024.0);
    EXPECT_EQ(b.configEnum("iso"), "gpu");
    EXPECT_EQ(b.features.nnz, 1000);
    EXPECT_DOUBLE_EQ(b.result.cycles, 12345.0);
    EXPECT_DOUBLE_EQ(b.result.converged, 1.0);
    EXPECT_DOUBLE_EQ(b.result.host_ms, 1.5);
    // Serialization itself is deterministic.
    EXPECT_EQ(rowToJsonLine(row), rowToJsonLine(b));
}

TEST(Dataset, MalformedRowsAnswerInvalidInput)
{
    EXPECT_EQ(rowFromJsonLine("not json").status().code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(rowFromJsonLine("{\"schema\":\"explore-v2\"}")
                  .status()
                  .code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(
        rowFromJsonLine(
            "{\"schema\":\"explore-v1\",\"key\":\"k\",\"app\":"
            "\"pr\",\"dataset\":\"gy\"}")
            .status()
            .code(),
        StatusCode::InvalidInput);
}

TEST(Dataset, ReaderSkipsTornFinalLineInKeyScan)
{
    const std::string path =
        ::testing::TempDir() + "torn_dataset.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << rowToJsonLine(sampleRow()) << '\n';
        // A SIGKILL mid-append leaves a torn line: the key scan must
        // treat it as absent so the job reruns.
        out << "{\"schema\":\"explore-v1\",\"key\":\"app=tor";
    }
    StatusOr<std::set<std::string>> keys = readDatasetKeys(path);
    ASSERT_TRUE(keys.ok());
    EXPECT_EQ(keys.value().size(), 1u);
    EXPECT_TRUE(keys.value().count(sampleRow().key));
    std::remove(path.c_str());
}

TEST(Dataset, MissingFileYieldsEmptyKeySet)
{
    StatusOr<std::set<std::string>> keys =
        readDatasetKeys(::testing::TempDir() + "nonexistent.jsonl");
    ASSERT_TRUE(keys.ok());
    EXPECT_TRUE(keys.value().empty());
}

// ---------------------------------------------------------------
// Sweep driver resumption

const char *kTinySpec =
    "space tiny\napps pr\ndatasets gy\niters 2\n"
    "axis buffer_kb list 256 1536\n";

TEST(SweepDriver, ResumeSkipsCompletedAndRepairsTornState)
{
    const std::string dataset =
        ::testing::TempDir() + "sweep_test.jsonl";
    const std::string journal = dataset + ".journal";
    std::remove(dataset.c_str());
    std::remove(journal.c_str());

    const ExploreSpec spec =
        parseExploreSpec(kTinySpec).value();
    SweepOptions opt;
    opt.dataset_path = dataset;

    StatusOr<SweepSummary> first = runSweep(spec, opt);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(first.value().total_jobs, 2u);
    EXPECT_EQ(first.value().ran, 2u);
    EXPECT_EQ(first.value().failed, 0u);
    EXPECT_EQ(first.value().rows_appended, 2u);

    // Plain resume: nothing recomputed, nothing appended.
    opt.resume = true;
    StatusOr<SweepSummary> second = runSweep(spec, opt);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_EQ(second.value().ran, 0u);
    EXPECT_EQ(second.value().rows_appended, 0u);
    EXPECT_EQ(second.value().skipped, 2u);

    // Tear 1: journal lost, rows intact -> repaired, not re-run.
    std::remove(journal.c_str());
    StatusOr<SweepSummary> repaired = runSweep(spec, opt);
    ASSERT_TRUE(repaired.ok()) << repaired.status().toString();
    EXPECT_EQ(repaired.value().ran, 0u);
    EXPECT_EQ(repaired.value().journal_repaired, 2u);

    // Tear 2: journal claims completion but a row was lost -> the
    // journal alone is not proof; the job re-runs.
    {
        std::ifstream in(dataset);
        std::string first_line;
        std::getline(in, first_line);
        in.close();
        std::ofstream out(dataset, std::ios::trunc);
        out << first_line << '\n';
    }
    StatusOr<SweepSummary> rerun = runSweep(spec, opt);
    ASSERT_TRUE(rerun.ok()) << rerun.status().toString();
    EXPECT_EQ(rerun.value().skipped, 1u);
    EXPECT_EQ(rerun.value().ran, 1u);
    EXPECT_EQ(rerun.value().rows_appended, 1u);

    StatusOr<std::vector<DatasetRow>> rows = readDataset(dataset);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value().size(), 2u);

    std::remove(dataset.c_str());
    std::remove(journal.c_str());
}

TEST(SweepDriver, DeadlineFailsOneJobAndResumeRunsOnlyIt)
{
    // knn runs every iteration whatever its values (as in
    // SessionCancelPropagation.MidSimDeadlineReturnsDeadlineExceeded),
    // while bfs and sssp converge within ten whatever the iteration
    // budget.  The deadline sits ten times above the slower of the
    // two on this machine and at a quarter of the knn job.
    api::Session &session = api::Session::process();
    for (const char *app : {"bfs", "sssp", "knn"})
        session.prepared(app, "co", ReorderKind::Vanilla);
    auto hostMs = [](api::Session &on, const char *app, Idx iters) {
        api::RunRequest req;
        req.app = app;
        req.dataset = "co";
        req.iters = iters;
        const auto start = std::chrono::steady_clock::now();
        EXPECT_TRUE(on.run(req).ok()) << app;
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    // A Session of their own, so the sweep's convergent jobs still
    // compute their values.
    api::Session calibration;
    double quick_ms = 0.0;
    for (const char *app : {"bfs", "sssp"}) {
        calibration.prepared(app, "co", ReorderKind::Vanilla);
        quick_ms = std::max(quick_ms, hostMs(calibration, app, 1000));
    }
    const double knn_iter_ms = std::max(
        1e-4, (hostMs(session, "knn", 202) - hostMs(session, "knn", 2)) / 200);
    const double deadline_ms = std::max(100.0, 10 * quick_ms);
    const Idx iters = 2 + static_cast<Idx>(4 * deadline_ms / knn_iter_ms);

    const std::string dataset =
        ::testing::TempDir() + "sweep_deadline.jsonl";
    const std::string journal = dataset + ".journal";
    std::remove(dataset.c_str());
    std::remove(journal.c_str());
    const ExploreSpec spec =
        parseExploreSpec("space deadline\napps bfs sssp knn\n"
                         "datasets co\niters " +
                         std::to_string(iters) + "\n")
            .value();
    SweepOptions opt;
    opt.dataset_path = dataset;
    opt.jobs = 1;
    opt.timeout_ms = static_cast<long long>(deadline_ms);

    const StatusOr<SweepSummary> first = runSweep(spec, opt);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(first->ran, 3u);
    EXPECT_EQ(first->failed, 1u) << iters << " iterations";
    EXPECT_EQ(first->rows_appended, 2u);
    const StatusOr<std::vector<DatasetRow>> rows = readDataset(dataset);
    ASSERT_TRUE(rows.ok()) << rows.status().toString();
    std::set<std::string> apps;
    for (const DatasetRow &row : rows.value())
        apps.insert(row.app);
    EXPECT_EQ(apps, (std::set<std::string>{"bfs", "sssp"}));

    const std::vector<ExploreJob> jobs = expandSpec(spec);
    ASSERT_EQ(jobs.back().app, "knn");
    const std::string knn_fail =
        "fail deadline-exceeded " + jobKey(jobs.back());
    std::ifstream in(journal);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    EXPECT_EQ(std::count(lines.begin(), lines.end(), knn_fail), 1);

    // Resumed without the deadline, the sweep runs the failed job
    // alone and appends its row.
    opt.resume = true;
    opt.timeout_ms = 0;
    const StatusOr<SweepSummary> resumed = runSweep(spec, opt);
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed->skipped, 2u);
    EXPECT_EQ(resumed->ran, 1u);
    EXPECT_EQ(resumed->failed, 0u);
    EXPECT_EQ(resumed->rows_appended, 1u);
    EXPECT_EQ(readDataset(dataset).value().size(), 3u);

    std::remove(dataset.c_str());
    std::remove(journal.c_str());
}

TEST(SweepDriver, CancelledRootTokenStopsTheSweep)
{
    const std::string dataset =
        ::testing::TempDir() + "sweep_cancel.jsonl";
    std::remove(dataset.c_str());
    CancelToken root;
    root.cancel();
    SweepOptions opt;
    opt.dataset_path = dataset;
    opt.cancel = &root;
    StatusOr<SweepSummary> summary =
        runSweep(parseExploreSpec(kTinySpec).value(), opt);
    EXPECT_FALSE(summary.ok());
    EXPECT_EQ(summary.status().code(), StatusCode::Cancelled);
    std::remove(dataset.c_str());
    std::remove((dataset + ".journal").c_str());
}

// ---------------------------------------------------------------
// Cost model

/** Synthetic rows following an exact log-linear law, so the fit
 *  must recover it almost perfectly. */
std::vector<DatasetRow>
syntheticRows()
{
    std::vector<DatasetRow> rows;
    const double buffers[] = {256, 512, 1024, 1536};
    const double bws[] = {63, 126, 252, 504};
    const char *apps[] = {"pr", "bfs"};
    for (const char *app : apps)
        for (double buffer : buffers)
            for (double bw : bws) {
                DatasetRow row;
                row.app = app;
                row.dataset = "gy";
                row.iters = 2;
                row.seed = "7";
                row.key = std::string("app=") + app +
                          " buffer=" + std::to_string(buffer) +
                          " bw=" + std::to_string(bw);
                row.config_num["buffer_kb"] = buffer;
                row.config_num["bandwidth_gb_s"] = bw;
                row.config_enum["reorder"] = "vanilla";
                row.features.rows = 10000;
                row.features.cols = 10000;
                row.features.nnz = 100000;
                row.features.row_mean = 10.0;
                row.features.row_cv = 0.5;
                row.features.bandwidth_est = 0.2;
                row.features.density = 0.001;
                const double app_factor =
                    row.app == std::string("bfs") ? 0.7 : 1.0;
                row.result.cycles = app_factor * 1e9 / bw *
                                    (1.0 + 100.0 / buffer);
                rows.push_back(row);
            }
    return rows;
}

TEST(CostModel, FitIsDeterministicAndAccurate)
{
    const std::vector<DatasetRow> rows = syntheticRows();
    StatusOr<CostModel> a = fitCostModel(rows);
    StatusOr<CostModel> b = fitCostModel(rows);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    ASSERT_TRUE(b.ok());
    // Byte-identical serialization: the determinism contract.
    EXPECT_EQ(modelToJson(a.value()), modelToJson(b.value()));
    // The synthetic law is log-linear in the model's features, so
    // the held-out error must be far under the CI gate.
    EXPECT_LT(a.value().median_rel_err_holdout, 0.05);
    EXPECT_LT(a.value().median_rel_err_train, 0.05);
}

TEST(CostModel, SerializationRoundTrips)
{
    StatusOr<CostModel> fit = fitCostModel(syntheticRows());
    ASSERT_TRUE(fit.ok());
    StatusOr<CostModel> back =
        modelFromJson(modelToJson(fit.value()));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(modelToJson(fit.value()), modelToJson(back.value()));
    const DatasetRow probe = syntheticRows()[5];
    EXPECT_DOUBLE_EQ(predictCycles(fit.value(), probe),
                     predictCycles(back.value(), probe));
}

TEST(CostModel, RejectsUnderdeterminedAndForeignInputs)
{
    EXPECT_EQ(fitCostModel({}).status().code(),
              StatusCode::InvalidInput);
    const std::vector<DatasetRow> all = syntheticRows();
    std::vector<DatasetRow> few(all.begin(), all.begin() + 4);
    EXPECT_EQ(fitCostModel(few).status().code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(modelFromJson("{}").status().code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(modelFromJson("nope").status().code(),
              StatusCode::InvalidInput);
}

TEST(CostModel, RejectsAModelFittedOnOtherFeatures)
{
    // Coefficients pair with features by position, so a model whose
    // feature list differs from this build's must not load even when
    // its coefficient count is self-consistent.
    StatusOr<CostModel> fit = fitCostModel(syntheticRows());
    ASSERT_TRUE(fit.ok());
    const CostModel &model = fit.value();

    CostModel renamed = model;
    renamed.feature_names.back() = "not_a_feature";

    CostModel dropped = model;
    dropped.feature_names.pop_back();
    dropped.coef.erase(dropped.coef.begin() +
                       static_cast<std::ptrdiff_t>(
                           dropped.feature_names.size()));

    // The feature list before the prefetch_fraction knob was removed.
    CostModel older = model;
    const auto eager = std::find(older.feature_names.begin(),
                                 older.feature_names.end(), "eager_csr");
    ASSERT_NE(eager, older.feature_names.end());
    const auto at = eager - older.feature_names.begin() + 1;
    older.feature_names.insert(older.feature_names.begin() + at,
                               "prefetch_fraction");
    older.coef.insert(older.coef.begin() + at, 0.25);

    for (const CostModel *foreign : {&renamed, &dropped, &older}) {
        StatusOr<CostModel> back = modelFromJson(modelToJson(*foreign));
        EXPECT_EQ(back.status().code(), StatusCode::InvalidInput)
            << modelToJson(*foreign);
    }
}

TEST(CostModel, PruneKeepsBestPredictedCandidates)
{
    const std::vector<DatasetRow> rows = syntheticRows();
    StatusOr<CostModel> model = fitCostModel(rows);
    ASSERT_TRUE(model.ok());
    const std::vector<std::size_t> kept =
        pruneProbeSet(model.value(), rows, 0.25);
    ASSERT_EQ(kept.size(), 8u);
    // The kept set must be ordered by ascending prediction and
    // include the true best row (the model is near-exact here).
    double best = 0.0;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (best == 0.0 || rows[i].result.cycles < best) {
            best = rows[i].result.cycles;
            best_index = i;
        }
    EXPECT_NE(std::find(kept.begin(), kept.end(), best_index),
              kept.end());
    for (std::size_t i = 1; i < kept.size(); ++i)
        EXPECT_LE(
            predictCycles(model.value(), rows[kept[i - 1]]),
            predictCycles(model.value(), rows[kept[i]]));
    // Degenerate fractions still probe something; empty input
    // probes nothing.
    EXPECT_EQ(pruneProbeSet(model.value(), rows, 0.0001).size(), 1u);
    EXPECT_TRUE(pruneProbeSet(model.value(), {}, 0.5).empty());
}

} // namespace
} // namespace sparsepipe::explore
