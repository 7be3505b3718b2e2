/**
 * @file
 * Tests for the serve subsystem: protocol round trips and
 * malformed-request handling, admission control, request
 * coalescing, and end-to-end Server behaviour over real sockets
 * (run, scrape, concurrent coalescing, shedding, drain).
 *
 * Everything here runs under the sanitizer CI jobs, so the
 * multi-threaded tests double as the TSan proof for the serve
 * layer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/admission.hh"
#include "serve/client.hh"
#include "serve/coalesce.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sparse/datasets.hh"
#include "util/status.hh"

namespace sparsepipe {
namespace {

using serve::AdmissionController;
using serve::Client;
using serve::Coalescer;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerConfig;
using serve::Ticket;

// ---------------------------------------------------------------
// Protocol

TEST(ServeProtocol, RequestRoundTripPreservesEveryField)
{
    Request req;
    req.op = Request::Op::Run;
    req.id = "r-7";
    req.app = "bfs";
    req.dataset = "gy";
    req.iters = 12;
    req.reorder = ReorderKind::Locality;
    req.seed = 0xabcdef01ULL;
    req.deadline_ms = 250;
    req.buffer_kb = 96;
    req.iso_cpu = true;
    req.blocked = false;

    const StatusOr<Request> back =
        serve::parseRequest(serve::encodeRequest(req));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->id, "r-7");
    EXPECT_EQ(back->app, "bfs");
    EXPECT_EQ(back->dataset, "gy");
    EXPECT_EQ(back->iters, 12);
    EXPECT_EQ(back->reorder, ReorderKind::Locality);
    EXPECT_EQ(back->seed, 0xabcdef01ULL);
    EXPECT_EQ(back->deadline_ms, 250);
    EXPECT_EQ(back->buffer_kb, 96);
    EXPECT_TRUE(back->iso_cpu);
    EXPECT_FALSE(back->blocked);
}

TEST(ServeProtocol, PingRoundTrip)
{
    Request ping;
    ping.op = Request::Op::Ping;
    ping.id = "hb";
    const StatusOr<Request> back =
        serve::parseRequest(serve::encodeRequest(ping));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->op, Request::Op::Ping);
    EXPECT_EQ(back->id, "hb");
}

TEST(ServeProtocol, MalformedRequestsNameTheDefect)
{
    const struct
    {
        const char *line;
        const char *want; // substring of the InvalidInput message
    } kTable[] = {
        {"", "not valid JSON"},
        {"{", "not valid JSON"},
        {"[1,2]", "wants a JSON object"},
        {"{\"op\":\"fly\"}", "unknown op 'fly'"},
        {"{\"op\":\"run\"}", "names no dataset"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"iters\":-1}",
         "'iters' wants a count >= 0"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"iters\":1.5}",
         "'iters' wants an integer"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"seed\":-3}",
         "'seed' wants an unsigned integer"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"seed\":1e20}",
         "'seed' wants an unsigned integer"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"reorder\":\"rcm\"}",
         "unknown reorder 'rcm'"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"iso\":\"tpu\"}",
         "unknown iso target 'tpu'"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"blocked\":\"yes\"}",
         "'blocked' wants a boolean"},
        {"{\"op\":\"run\",\"dataset\":17}", "'dataset' wants a string"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"buffer_kb\":-8}",
         "'buffer_kb' wants a size >= 0"},
        {"{\"op\":\"run\",\"app\":\"pr\",\"dataset\":\"gy\","
         "\"buffer_kb\":9007199254740992}",
         "'buffer_kb' wants a size <= 1048576"},
        {"{\"op\":\"run\",\"dataset\":\"ca\",\"iters\":1e19}",
         "'iters' wants an integer within +-2^53"},
    };
    for (const auto &row : kTable) {
        const StatusOr<Request> parsed = serve::parseRequest(row.line);
        ASSERT_FALSE(parsed.ok()) << row.line;
        EXPECT_EQ(parsed.status().code(), StatusCode::InvalidInput)
            << row.line;
        EXPECT_NE(parsed.status().message().find(row.want),
                  std::string::npos)
            << "line " << row.line << " produced: "
            << parsed.status().message();
    }
}

TEST(ServeProtocol, ResponseRoundTripOkAndError)
{
    Response ok;
    ok.id = "a";
    ok.coalesced = true;
    ok.cycles = 123456;
    ok.nnz = 789;
    ok.elapsed_us = 42.5;
    const StatusOr<Response> ok_back =
        serve::parseResponse(serve::encodeResponse(ok));
    ASSERT_TRUE(ok_back.ok());
    EXPECT_TRUE(ok_back->status.ok());
    EXPECT_TRUE(ok_back->coalesced);
    EXPECT_EQ(ok_back->cycles, 123456);
    EXPECT_EQ(ok_back->nnz, 789);
    EXPECT_DOUBLE_EQ(ok_back->elapsed_us, 42.5);

    Response err;
    err.id = "b";
    err.status = resourceExhausted("server at capacity");
    err.retry_after_ms = 75;
    const StatusOr<Response> err_back =
        serve::parseResponse(serve::encodeResponse(err));
    ASSERT_TRUE(err_back.ok());
    EXPECT_EQ(err_back->status.code(),
              StatusCode::ResourceExhausted);
    // The message travels bare; the code travels in "code".  A
    // re-encode must not stack "resource-exhausted:" prefixes.
    EXPECT_EQ(err_back->status.message(), "server at capacity");
    EXPECT_EQ(err_back->retry_after_ms, 75);
    EXPECT_EQ(serve::encodeResponse(*err_back),
              serve::encodeResponse(err));
}

TEST(ServeProtocol, CoalesceKeyIgnoresIdentityNotConfig)
{
    Request a;
    a.dataset = "ca";
    Request b = a;
    b.id = "different-id";
    b.deadline_ms = 900; // deadline is per-request, not per-work
    EXPECT_EQ(serve::coalesceKey(a), serve::coalesceKey(b));

    Request c = a;
    c.seed = 99;
    EXPECT_NE(serve::coalesceKey(a), serve::coalesceKey(c));
    Request d = a;
    d.iso_cpu = true;
    EXPECT_NE(serve::coalesceKey(a), serve::coalesceKey(d));
}

// ---------------------------------------------------------------
// Admission control

TEST(ServeAdmission, QueueBoundShedsAndReleaseReadmits)
{
    AdmissionController::Config config;
    config.max_in_flight = 1;
    config.retry_after_ms = 33;
    AdmissionController adm(config);

    StatusOr<Ticket> first = adm.tryAdmit(100);
    ASSERT_TRUE(first.ok());
    StatusOr<Ticket> second = adm.tryAdmit(100);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(adm.retryAfterMs(), 33);

    first->release();
    StatusOr<Ticket> third = adm.tryAdmit(100);
    EXPECT_TRUE(third.ok());

    const serve::AdmissionStats stats = adm.stats();
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.shed_queue, 1u);
    EXPECT_EQ(stats.shed_memory, 0u);
    EXPECT_EQ(stats.in_flight, 1u);
}

TEST(ServeAdmission, MemoryBudgetShedsButNeverStarvesAnIdleServer)
{
    AdmissionController::Config config;
    config.max_in_flight = 8;
    config.memory_budget_bytes = 1000;
    AdmissionController adm(config);

    // A single oversized request on an idle controller still admits:
    // refusing it forever would be a permanent outage.
    StatusOr<Ticket> huge = adm.tryAdmit(5000);
    ASSERT_TRUE(huge.ok());
    // With work in flight the budget is enforced.
    StatusOr<Ticket> more = adm.tryAdmit(1);
    ASSERT_FALSE(more.ok());
    EXPECT_EQ(more.status().code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(adm.stats().shed_memory, 1u);

    huge->release();
    EXPECT_EQ(adm.stats().in_flight, 0u);
    EXPECT_EQ(adm.stats().in_flight_bytes, 0u);
    EXPECT_TRUE(adm.tryAdmit(1).ok());
}

/** A run request for `app` on a built-in dataset. */
Request
runOf(const char *app, const char *dataset)
{
    Request req;
    req.app = app;
    req.dataset = dataset;
    return req;
}

/** Bytes of the index arrays of a pattern's forms, each form once
 *  (SPD's two forms are one). */
std::uint64_t
indexBytes(const api::PreparedPattern &pattern)
{
    std::uint64_t bytes = 0;
    for (const SparsityPattern *form : std::set<const SparsityPattern *>{
             pattern.csr.get(), pattern.csc.get()})
        bytes += (form->ptr.size() + form->idx.size()) * sizeof(Idx);
    return bytes;
}

TEST(ServeAdmission, ResidentEstimateBracketsTheBytesHeld)
{
    // What concurrent runs hold: each distinct pattern once (its
    // index arrays and the timing buckets its runs built; the value
    // kinds share one), each distinct value array once (pr and label
    // share theirs, and cg's CSC form reads its CSR's), and the dense
    // tensors of every run that binds a workspace (which shares the
    // operand): gcn's program has no convergence test, so its run
    // binds none.  The estimate, sized from the dataset spec alone,
    // must not undercount it and must stay within 2x.
    const std::vector<std::vector<const char *>> groups = {
        {"pr"},          {"bfs"},          {"sssp"},
        {"gcn"},         {"cg"},           {"pr", "label"},
        {"pr", "bfs", "sssp", "gcn", "cg"}};
    for (const std::vector<const char *> &group : groups) {
        api::Session session;
        std::uint64_t held = 0, estimate = 0;
        std::set<const Value *> operands, value_arrays;
        std::set<const api::PreparedPattern *> patterns;
        std::set<std::string> keys, pattern_keys;
        std::string label;
        for (const char *app : group) {
            label += std::string(app) + " ";
            const api::PreparedCase &pc =
                session.prepared(app, "gy", ReorderKind::Vanilla);
            // A run builds the buckets its pattern memoizes.
            api::RunRequest req;
            req.app = app;
            req.dataset = "gy";
            req.iters = 2;
            ASSERT_TRUE(session.run(req).ok()) << label;
            patterns.insert(pc.pattern.get());
            operands.insert(pc.csr.vals().data());
            for (const std::vector<Value> *vals :
                 {&pc.csr.vals(), &pc.csc.vals()})
                if (value_arrays.insert(vals->data()).second)
                    held += vals->size() * sizeof(Value);
            if (!valueFreeOutcome(pc.app.program, req.iters)) {
                const Workspace ws = api::Session::bindWorkspace(pc);
                const auto &tensors = pc.app.program.tensors();
                for (std::size_t id = 0; id < tensors.size(); ++id) {
                    const auto tid = static_cast<TensorId>(id);
                    if (tensors[id].kind == TensorKind::Vector)
                        held += ws.vec(tid).size() * sizeof(Value);
                    else if (tensors[id].kind == TensorKind::DenseMatrix)
                        held +=
                            ws.den(tid).data().size() * sizeof(Value);
                }
            }
            const serve::Charge charge =
                serve::estimateResidentBytes(runOf(app, "gy"));
            estimate += charge.own_bytes;
            if (keys.insert(charge.shared_key).second)
                estimate += charge.shared_bytes;
            if (pattern_keys.insert(charge.pattern_key).second)
                estimate += charge.pattern_bytes;
        }
        for (const api::PreparedPattern *pattern : patterns) {
            ASSERT_NE(pattern, nullptr) << label;
            EXPECT_GT(pattern->buckets.heldBytes(), 0u) << label;
            held += indexBytes(*pattern) + pattern->buckets.heldBytes();
        }
        EXPECT_EQ(operands.size(), keys.size()) << label;
        EXPECT_EQ(patterns.size(), pattern_keys.size()) << label;
        EXPECT_GE(estimate, held) << label;
        EXPECT_LE(estimate, 2 * held) << label;
    }
    for (const Request &unknown : {runOf("nope", "gy"), runOf("pr", "nope")}) {
        const serve::Charge charge = serve::estimateResidentBytes(unknown);
        EXPECT_EQ(charge.own_bytes + charge.shared_bytes +
                      charge.pattern_bytes,
                  0u);
        EXPECT_TRUE(charge.shared_key.empty());
        EXPECT_TRUE(charge.pattern_key.empty());
    }
}

TEST(ServeAdmission, ValueFreeRunsChargeNoWorkspace)
{
    // Session::run binds no workspace for a program without a
    // convergence test (knn, gcn), so their runs own no bytes; pr's
    // run owns its dense vectors.
    for (const char *app : {"knn", "gcn"}) {
        const serve::Charge charge =
            serve::estimateResidentBytes(runOf(app, "gy"));
        EXPECT_EQ(charge.own_bytes, 0u) << app;
        EXPECT_GT(charge.shared_bytes, 0u) << app;
        EXPECT_GT(charge.pattern_bytes, 0u) << app;
    }
    const AppInstance pr = makeApp("pr", datasetSpec("gy").rows);
    std::uint64_t vectors = 0;
    for (const TensorInfo &t : pr.program.tensors())
        if (t.kind == TensorKind::Vector)
            vectors += static_cast<std::uint64_t>(t.dim0) * sizeof(Value);
    EXPECT_EQ(serve::estimateResidentBytes(runOf("pr", "gy")).own_bytes,
              vectors);
}

TEST(ServeAdmission, TicketsOfOneOperandChargeItOnce)
{
    // pr and label prepare the same row-stochastic operand of gy, so
    // their tickets hold one operand plus two workspaces; bfs needs
    // the boolean operand on the same pattern, cg the SPD operand on
    // a pattern of its own, another seed another matrix.
    const serve::Charge pr = serve::estimateResidentBytes(runOf("pr", "gy"));
    const serve::Charge label =
        serve::estimateResidentBytes(runOf("label", "gy"));
    const serve::Charge bfs =
        serve::estimateResidentBytes(runOf("bfs", "gy"));
    const serve::Charge cg = serve::estimateResidentBytes(runOf("cg", "gy"));
    ASSERT_FALSE(pr.shared_key.empty());
    ASSERT_FALSE(pr.pattern_key.empty());
    ASSERT_GT(pr.own_bytes, 0u);
    ASSERT_GT(pr.pattern_bytes, 0u);
    EXPECT_EQ(pr.shared_key, label.shared_key);
    EXPECT_EQ(pr.shared_bytes, label.shared_bytes);
    EXPECT_NE(pr.shared_key, bfs.shared_key);
    EXPECT_EQ(pr.pattern_key, bfs.pattern_key);
    EXPECT_EQ(pr.pattern_bytes, bfs.pattern_bytes);
    EXPECT_NE(pr.pattern_key, cg.pattern_key);
    Request reseeded = runOf("pr", "gy");
    reseeded.seed = 7;
    const serve::Charge other = serve::estimateResidentBytes(reseeded);
    EXPECT_NE(other.shared_key, pr.shared_key);
    EXPECT_NE(other.pattern_key, pr.pattern_key);

    // A budget that fits one pattern, one operand and both workspaces
    // admits the pair, and sheds a third run needing another operand.
    AdmissionController::Config config;
    config.memory_budget_bytes =
        pr.pattern_bytes + pr.shared_bytes + pr.own_bytes + label.own_bytes;
    AdmissionController adm(config);
    StatusOr<Ticket> t_pr = adm.tryAdmit(pr);
    StatusOr<Ticket> t_label = adm.tryAdmit(label);
    ASSERT_TRUE(t_pr.ok() && t_label.ok());
    EXPECT_EQ(adm.stats().in_flight_bytes, config.memory_budget_bytes);
    StatusOr<Ticket> t_bfs = adm.tryAdmit(bfs);
    ASSERT_FALSE(t_bfs.ok());
    EXPECT_EQ(t_bfs.status().code(), StatusCode::ResourceExhausted);

    // The operand and its pattern stay charged while any ticket holds
    // them, and a moved ticket carries its shares.
    t_pr->release();
    EXPECT_EQ(adm.stats().in_flight_bytes,
              label.pattern_bytes + label.shared_bytes + label.own_bytes);
    Ticket moved = std::move(t_label).value();
    moved.release();
    EXPECT_EQ(adm.stats().in_flight, 0u);
    EXPECT_EQ(adm.stats().in_flight_bytes, 0u);

    // Released, the keys charge again.
    StatusOr<Ticket> again = adm.tryAdmit(label);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(adm.stats().in_flight_bytes,
              label.pattern_bytes + label.shared_bytes + label.own_bytes);
    again->release();

    // pr and bfs: two kinds, two operands, one pattern charged once.
    AdmissionController::Config wide;
    wide.memory_budget_bytes = pr.pattern_bytes + pr.shared_bytes +
                               pr.own_bytes + bfs.shared_bytes +
                               bfs.own_bytes;
    AdmissionController both(wide);
    StatusOr<Ticket> w_pr = both.tryAdmit(pr);
    StatusOr<Ticket> w_bfs = both.tryAdmit(bfs);
    ASSERT_TRUE(w_pr.ok() && w_bfs.ok());
    EXPECT_EQ(both.stats().in_flight_bytes, wide.memory_budget_bytes);
    // cg's SPD operand reads another pattern: it does not fit.
    EXPECT_FALSE(both.tryAdmit(cg).ok());
    w_pr->release();
    EXPECT_EQ(both.stats().in_flight_bytes,
              bfs.pattern_bytes + bfs.shared_bytes + bfs.own_bytes);
    w_bfs->release();
    EXPECT_EQ(both.stats().in_flight_bytes, 0u);
}

TEST(ServeAdmission, TicketMovesCarryTheSlot)
{
    AdmissionController::Config config;
    config.max_in_flight = 1;
    AdmissionController adm(config);
    {
        StatusOr<Ticket> admitted = adm.tryAdmit(10);
        ASSERT_TRUE(admitted.ok());
        Ticket moved = std::move(admitted).value();
        EXPECT_TRUE(moved.admitted());
        moved.release();
        moved.release(); // idempotent
        EXPECT_FALSE(moved.admitted());
        EXPECT_EQ(adm.stats().in_flight, 0u);
    }
    // Destruction of a released ticket must not double-release.
    EXPECT_EQ(adm.stats().in_flight, 0u);
    EXPECT_TRUE(adm.tryAdmit(10).ok());
}

// ---------------------------------------------------------------
// Coalescing

TEST(ServeCoalesce, ExactlyOneLeaderUnderContention)
{
    // Deterministic: the leader's compute spins until every other
    // thread has registered as a follower of its flight, so the
    // flight provably stays open while all N threads pass through.
    constexpr int kThreads = 8;
    Coalescer<int> coalescer;
    std::atomic<int> computes{0};
    std::atomic<int> leaders{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            auto outcome = coalescer.runOrJoin("key", [&] {
                computes.fetch_add(1);
                while (coalescer.stats().followers <
                       static_cast<std::uint64_t>(kThreads - 1))
                    std::this_thread::yield();
                return 41;
            });
            if (outcome.leader)
                leaders.fetch_add(1);
            EXPECT_EQ(*outcome.result, 41);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(leaders.load(), 1);
    const serve::CoalesceStats stats = coalescer.stats();
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.followers,
              static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(coalescer.inFlight(), 0u);
}

TEST(ServeCoalesce, FlightEndsWithTheLeaderSoNothingGoesStale)
{
    Coalescer<int> coalescer;
    int calls = 0;
    auto first = coalescer.runOrJoin("k", [&] { return ++calls; });
    auto second = coalescer.runOrJoin("k", [&] { return ++calls; });
    // Sequential requests each lead a fresh flight: coalescing is
    // about concurrency, never about caching results.
    EXPECT_EQ(*first.result, 1);
    EXPECT_EQ(*second.result, 2);
    EXPECT_TRUE(first.leader);
    EXPECT_TRUE(second.leader);
    EXPECT_EQ(coalescer.stats().leaders, 2u);
    EXPECT_EQ(coalescer.stats().followers, 0u);
}

TEST(ServeCoalesce, WaiterThatAsksAgainLeadsAFreshFlight)
{
    // A waiter that sees a flight's outcome and at once asks for the
    // key again must lead a fresh flight: the finished one leaves the
    // table before it publishes.  The waiter polls (a zero deadline
    // detaches it from the unfinished flight, whose leader still
    // waits, and it joins again), so it can ask again a few
    // instructions after the outcome appears; many rounds make that
    // window show.
    constexpr int kRounds = 2000;
    Coalescer<int> coalescer;
    int stale = 0;
    for (int round = 0; round < kRounds; ++round) {
        const Coalescer<int>::Join first = coalescer.begin("k");
        ASSERT_TRUE(first.leader);
        std::thread completer(
            [&] { coalescer.complete("k", first.flight, round); });
        Coalescer<int>::Join join;
        std::shared_ptr<const int> seen;
        do {
            join = coalescer.begin("k");
            if (join.leader)
                break; // the finished flight had left the table
            seen = coalescer.wait(join.flight,
                                  std::chrono::steady_clock::now());
        } while (!seen);
        if (seen) {
            EXPECT_EQ(*seen, round);
            join = coalescer.begin("k");
            stale += !join.leader;
        }
        completer.join();
        if (join.leader)
            coalescer.complete("k", join.flight, -1);
        coalescer.wait(join.flight);
        coalescer.wait(first.flight);
        ASSERT_EQ(coalescer.inFlight(), 0u);
    }
    EXPECT_EQ(stale, 0) << "of " << kRounds << " rounds";
}

TEST(ServeCoalesce, LeaderExceptionReachesEveryFollower)
{
    Coalescer<int> coalescer;
    std::atomic<int> exceptions{0};
    constexpr int kFollowers = 3;
    std::vector<std::thread> threads;
    for (int i = 0; i < kFollowers + 1; ++i) {
        threads.emplace_back([&] {
            try {
                coalescer.runOrJoin("boom", [&]() -> int {
                    while (coalescer.stats().followers <
                           static_cast<std::uint64_t>(kFollowers))
                        std::this_thread::yield();
                    throw std::runtime_error("leader died");
                });
            } catch (const std::runtime_error &) {
                exceptions.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(exceptions.load(), kFollowers + 1);
    EXPECT_EQ(coalescer.inFlight(), 0u);
    // The table is clean: the key can lead again.
    auto retry = coalescer.runOrJoin("boom", [] { return 7; });
    EXPECT_EQ(*retry.result, 7);
}

TEST(ServeProtocol, BudgetErrorsCarryAnExplicitZeroRetryAfter)
{
    // DeadlineExceeded / Cancelled are retryable with a fresh budget
    // — the wire says so explicitly, so clients need not hard-code
    // which codes are budget errors.
    Response late;
    late.id = "d";
    late.status = deadlineExceeded("deadline of 5 ms expired");
    EXPECT_NE(serve::encodeResponse(late).find(
                  "\"retry_after_ms\":0"),
              std::string::npos);

    Response gone;
    gone.status = cancelledError("cancelled");
    EXPECT_NE(serve::encodeResponse(gone).find(
                  "\"retry_after_ms\":0"),
              std::string::npos);

    // Terminal errors carry no retry hint at all.
    Response bad;
    bad.status = invalidInput("unknown dataset 'nope'");
    EXPECT_EQ(serve::encodeResponse(bad).find("retry_after_ms"),
              std::string::npos);

    // A shed keeps its positive hint.
    Response shed;
    shed.status = resourceExhausted("at capacity");
    shed.retry_after_ms = 40;
    EXPECT_NE(serve::encodeResponse(shed).find(
                  "\"retry_after_ms\":40"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Coalescing: deadline-aware flights

TEST(ServeCoalesce, LastWaiterDetachCancelsFlightAndFreesTheKey)
{
    Coalescer<int> coalescer;
    auto join = coalescer.begin("k");
    ASSERT_TRUE(join.leader);
    EXPECT_FALSE(join.flight->token().cancelled());

    // The only waiter detaches (deadline already past): the flight's
    // token fires and the key is free for a fresh leader instead of
    // joining the doomed flight.
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1);
    EXPECT_EQ(coalescer.wait(join.flight, past), nullptr);
    EXPECT_TRUE(join.flight->token().cancelled());
    EXPECT_EQ(coalescer.inFlight(), 0u);
    EXPECT_EQ(coalescer.stats().detached, 1u);
    EXPECT_EQ(coalescer.stats().flights_cancelled, 1u);

    auto fresh = coalescer.begin("k");
    EXPECT_TRUE(fresh.leader);
    EXPECT_FALSE(fresh.flight->token().cancelled());
    coalescer.complete("k", fresh.flight, 5);
    EXPECT_EQ(*coalescer.wait(fresh.flight), 5);
}

TEST(ServeCoalesce, DetachedFollowerLeavesTheLeadersFlightAlive)
{
    Coalescer<int> coalescer;
    auto leader = coalescer.begin("k");
    ASSERT_TRUE(leader.leader);
    auto follower = coalescer.begin("k");
    ASSERT_FALSE(follower.leader);
    EXPECT_EQ(follower.flight, leader.flight);

    // The follower's deadline expires; the leader is still waiting,
    // so the flight must NOT be cancelled.
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1);
    EXPECT_EQ(coalescer.wait(follower.flight, past), nullptr);
    EXPECT_FALSE(leader.flight->token().cancelled());
    EXPECT_EQ(coalescer.stats().detached, 1u);
    EXPECT_EQ(coalescer.stats().flights_cancelled, 0u);

    coalescer.complete("k", leader.flight, 9);
    EXPECT_EQ(*coalescer.wait(leader.flight), 9);
    EXPECT_EQ(coalescer.inFlight(), 0u);
}

// ---------------------------------------------------------------
// End-to-end Server over real sockets

ListenAddress
loopback(int port)
{
    ListenAddress addr;
    addr.host = "127.0.0.1";
    addr.port = port;
    return addr;
}

double
counter(Server &server, const std::string &key)
{
    obs::MetricsRegistry reg;
    server.fillMetrics(reg);
    return reg.get(key);
}

TEST(ServeServer, RunPingScrapeAndBadInputOverTcp)
{
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok()) << client.status().toString();

    Request ping;
    ping.op = Request::Op::Ping;
    ping.id = "hb";
    StatusOr<Response> pong = client->call(ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong->status.ok());
    EXPECT_EQ(pong->id, "hb");

    Request run;
    run.app = "pr";
    run.dataset = "ca";
    run.iters = 4;
    StatusOr<Response> resp = client->call(run);
    ASSERT_TRUE(resp.ok()) << resp.status().toString();
    ASSERT_TRUE(resp->status.ok()) << resp->status.toString();
    EXPECT_GT(resp->cycles, 0);
    // The generator dedups collisions, so the realized nnz lands
    // near (not exactly at) the spec's target.
    EXPECT_GT(resp->nnz,
              static_cast<long long>(findDatasetSpec("ca")->nnz) / 2);
    EXPECT_FALSE(resp->coalesced);
    EXPECT_GT(resp->elapsed_us, 0.0);

    // Unknown names come back as InvalidInput responses on a healthy
    // connection, with a bare message (no stacked code prefixes).
    Request bad = run;
    bad.dataset = "nope";
    StatusOr<Response> bad_resp = client->call(bad);
    ASSERT_TRUE(bad_resp.ok());
    EXPECT_EQ(bad_resp->status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(bad_resp->status.message(), "unknown dataset 'nope'");

    // So is a buffer size past 2^20 KiB, whose byte count would
    // overflow, and the server goes on answering.
    Request huge;
    huge.app = "pr";
    huge.dataset = "gy";
    huge.buffer_kb = 1LL << 53;
    StatusOr<Response> huge_resp = client->call(huge);
    ASSERT_TRUE(huge_resp.ok()) << huge_resp.status().toString();
    EXPECT_EQ(huge_resp->status.code(), StatusCode::InvalidInput);
    pong = client->call(ping);
    ASSERT_TRUE(pong.ok()) << pong.status().toString();
    EXPECT_TRUE(pong->status.ok());

    // The same port answers an HTTP metrics scrape.
    StatusOr<std::string> body =
        serve::scrapeMetrics(loopback(server.port()));
    ASSERT_TRUE(body.ok()) << body.status().toString();
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(*body, doc, &error)) << error;
    const obs::JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const obs::JsonValue *requests =
        metrics->find("serve.requests_total");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->number, 3.0);
    EXPECT_NE(metrics->find("cache.prepared.hits"), nullptr);
    EXPECT_NE(metrics->find("serve.coalesced_total"), nullptr);

    server.requestDrain();
    server.join();
    EXPECT_EQ(counter(server, "serve.active_connections"), 0.0);
}

TEST(ServeServer, OtherBufferSizeOfOneKeyIsAFunctionalMemoHit)
{
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());

    // The first request computes the case's values; the second, for
    // the same (app, dataset, iters) with another buffer, only times
    // them.  Both are simulations, not coalesced replies.
    Request first;
    first.app = "pr";
    first.dataset = "ca";
    first.iters = 4;
    Request second = first;
    second.buffer_kb = 96;
    StatusOr<Response> a = client->call(first);
    ASSERT_TRUE(a.ok() && a->status.ok());
    EXPECT_EQ(counter(server, "cache.functional.misses"), 1.0);
    EXPECT_EQ(counter(server, "cache.functional.hits"), 0.0);
    StatusOr<Response> b = client->call(second);
    ASSERT_TRUE(b.ok() && b->status.ok());
    EXPECT_FALSE(b->coalesced);
    EXPECT_EQ(counter(server, "serve.sim_runs"), 2.0);
    EXPECT_EQ(counter(server, "cache.functional.misses"), 1.0);
    EXPECT_EQ(counter(server, "cache.functional.hits"), 1.0);
    // A 96 KiB buffer cannot hold the operand: reloads cost cycles.
    EXPECT_GT(b->cycles, a->cycles);

    // The scrape exports the family.
    StatusOr<std::string> body =
        serve::scrapeMetrics(loopback(server.port()));
    ASSERT_TRUE(body.ok()) << body.status().toString();
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(*body, doc, &error)) << error;
    const obs::JsonValue *hits =
        doc.find("metrics")->find("cache.functional.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->number, 1.0);
}

TEST(ServeServer, AppsOfOneKindShareOneOperand)
{
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());

    // pr and label prepare the same operand of ca: two per-app
    // cases, one operand.  bfs prepares another kind on the same
    // pattern, so all three runs time on one bucket set.
    for (const char *app : {"pr", "label", "bfs"}) {
        Request req = runOf(app, "ca");
        req.iters = 2;
        StatusOr<Response> resp = client->call(req);
        ASSERT_TRUE(resp.ok() && resp->status.ok()) << app;
    }
    EXPECT_EQ(counter(server, "cache.prepared.misses"), 3.0);
    EXPECT_EQ(counter(server, "cache.operand.misses"), 2.0);
    EXPECT_EQ(counter(server, "cache.operand.hits"), 1.0);
    EXPECT_EQ(counter(server, "cache.operand.evictions"), 0.0);
    EXPECT_EQ(counter(server, "cache.pattern.misses"), 1.0);
    EXPECT_EQ(counter(server, "cache.pattern.hits"), 1.0);
    EXPECT_EQ(counter(server, "cache.pattern.evictions"), 0.0);
    EXPECT_EQ(counter(server, "cache.buckets.misses"), 1.0);
    EXPECT_EQ(counter(server, "cache.buckets.hits"), 2.0);
    EXPECT_EQ(counter(server, "cache.buckets.evictions"), 0.0);
}

TEST(ServeServer, ConcurrentIdenticalRequestsRunOneSimulation)
{
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    constexpr int kClients = 6;

    // Coalescing needs genuine overlap, so release all clients
    // through a barrier onto a request sized to stay in flight for
    // a while; retry with a fresh key on the rare miss.
    bool coalesced_all = false;
    for (int attempt = 0; attempt < 3 && !coalesced_all; ++attempt) {
        const double sims_before = counter(server, "serve.sim_runs");
        const double followers_before =
            counter(server, "serve.coalesced_total");

        std::vector<Client> clients;
        clients.reserve(kClients);
        for (int i = 0; i < kClients; ++i) {
            StatusOr<Client> c =
                Client::connect(loopback(server.port()));
            ASSERT_TRUE(c.ok()) << c.status().toString();
            clients.push_back(std::move(c).value());
        }

        Request req;
        req.app = "pr";
        req.dataset = "co";
        req.iters = 48;
        req.seed = 0x6e6e0000ULL + static_cast<std::uint64_t>(attempt);

        std::atomic<int> ready{0};
        std::atomic<bool> go{false};
        std::atomic<int> ok{0};
        std::vector<std::thread> threads;
        for (int i = 0; i < kClients; ++i) {
            threads.emplace_back([&, i] {
                ready.fetch_add(1);
                while (!go.load())
                    std::this_thread::yield();
                StatusOr<Response> resp = clients[i].call(req);
                if (resp.ok() && resp->status.ok())
                    ok.fetch_add(1);
            });
        }
        while (ready.load() < kClients)
            std::this_thread::yield();
        go.store(true);
        for (std::thread &t : threads)
            t.join();
        ASSERT_EQ(ok.load(), kClients);

        const double sims =
            counter(server, "serve.sim_runs") - sims_before;
        const double followers =
            counter(server, "serve.coalesced_total") -
            followers_before;
        coalesced_all =
            sims == 1.0 && followers == double(kClients - 1);
    }
    EXPECT_TRUE(coalesced_all)
        << "no attempt fully coalesced " << kClients
        << " identical concurrent requests into one simulation";
}

TEST(ServeServer, SequentialIdenticalRequestsEachRunASimulation)
{
    // Coalescing serves concurrent requests only: a client's next
    // identical request arrives after the flight finished, so it
    // starts a fresh run instead of reading the finished flight.
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    Request req;
    req.app = "pr";
    req.dataset = "gy";
    req.iters = 2;
    for (int i = 0; i < 3; ++i) {
        StatusOr<Response> resp = client->call(req);
        ASSERT_TRUE(resp.ok() && resp->status.ok()) << "request " << i;
        EXPECT_FALSE(resp->coalesced) << "request " << i;
    }
    EXPECT_EQ(counter(server, "serve.sim_runs"), 3.0);
    EXPECT_EQ(counter(server, "serve.coalesced_total"), 0.0);
}

TEST(ServeServer, ShedsWithRetryAfterWhenAtCapacity)
{
    ServerConfig config;
    config.admission.max_in_flight = 0; // shed everything
    config.admission.retry_after_ms = 40;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    Request req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;
    StatusOr<Response> resp = client->call(req);
    ASSERT_TRUE(resp.ok()) << resp.status().toString();
    EXPECT_EQ(resp->status.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(resp->retry_after_ms, 40);
    // The connection survives a shed; a ping still answers.
    Request ping;
    ping.op = Request::Op::Ping;
    StatusOr<Response> pong = client->call(ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong->status.ok());
    EXPECT_EQ(counter(server, "serve.shed_total"), 1.0);
    EXPECT_EQ(counter(server, "serve.sim_runs"), 0.0);
}

TEST(ServeServer, DrainFinishesInFlightWorkAndJoinReturns)
{
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> slow = Client::connect(loopback(server.port()));
    ASSERT_TRUE(slow.ok());
    Request req;
    req.app = "pr";
    req.dataset = "co";
    req.iters = 64;
    std::thread in_flight([&] {
        StatusOr<Response> resp = slow->call(req);
        ASSERT_TRUE(resp.ok()) << resp.status().toString();
        // Drained, not aborted: the admitted run completes.
        EXPECT_TRUE(resp->status.ok()) << resp->status.toString();
        EXPECT_GT(resp->cycles, 0);
    });
    // Wait until the simulation is actually admitted before
    // draining, so the test pins "drain finishes in-flight work".
    while (counter(server, "serve.sim_runs") < 1.0)
        std::this_thread::yield();

    server.requestDrain();
    EXPECT_TRUE(server.draining());
    // A fresh request is refused now — either the connection is not
    // accepted any more or the request is rejected with Cancelled.
    StatusOr<Client> late = Client::connect(loopback(server.port()));
    if (late.ok()) {
        StatusOr<Response> refused = late->call(req);
        if (refused.ok()) {
            EXPECT_EQ(refused->status.code(), StatusCode::Cancelled);
        }
    }

    in_flight.join();
    server.join();
    EXPECT_EQ(counter(server, "serve.responses_ok"), 1.0);
    EXPECT_EQ(counter(server, "serve.active_connections"), 0.0);
}

TEST(ServeServer, AbortCancelsInFlightSimulations)
{
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    Request req;
    req.app = "pr";
    req.dataset = "co";
    req.iters = 400; // long enough to be mid-flight when aborted
    std::thread in_flight([&] {
        StatusOr<Response> resp = client->call(req);
        ASSERT_TRUE(resp.ok()) << resp.status().toString();
        EXPECT_EQ(resp->status.code(), StatusCode::Cancelled)
            << resp->status.toString();
    });
    while (counter(server, "serve.sim_runs") < 1.0)
        std::this_thread::yield();

    server.requestAbort();
    in_flight.join();
    server.join();
}

// ---------------------------------------------------------------
// Deadline propagation through the server

TEST(ServeServer, PreExpiredDeadlineNeverStartsASimulation)
{
    ServerConfig config;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    Request req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;
    req.deadline_ms = -5; // expired before it ever reached us
    StatusOr<Response> resp = client->call(req);
    ASSERT_TRUE(resp.ok()) << resp.status().toString();
    EXPECT_EQ(resp->status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(resp->retry_after_ms, 0);

    EXPECT_EQ(counter(server, "serve.sim_runs"), 0.0);
    EXPECT_EQ(counter(server, "serve.timeout.pre_expired"), 1.0);
    // The connection survives the rejection.
    Request ping;
    ping.op = Request::Op::Ping;
    StatusOr<Response> pong = client->call(ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong->status.ok());
}

TEST(ServeServer, WaiterDeadlineDetachesWithoutKillingTheFlight)
{
    Server server(ServerConfig{});
    ASSERT_TRUE(server.start().ok());

    Request slow;
    slow.app = "pr";
    slow.dataset = "co";
    slow.iters = 400;

    StatusOr<Client> leader = Client::connect(loopback(server.port()));
    ASSERT_TRUE(leader.ok());
    std::thread leader_thread([&] {
        StatusOr<Response> resp = leader->call(slow);
        ASSERT_TRUE(resp.ok()) << resp.status().toString();
        // The follower's expiry must not have cancelled this run.
        EXPECT_TRUE(resp->status.ok()) << resp->status.toString();
    });
    while (counter(server, "serve.sim_runs") < 1.0)
        std::this_thread::yield();

    // Identical work, tiny budget: joins the leader's flight and
    // detaches when the budget expires.
    StatusOr<Client> follower =
        Client::connect(loopback(server.port()));
    ASSERT_TRUE(follower.ok());
    Request hurry = slow;
    hurry.deadline_ms = 1;
    StatusOr<Response> resp = follower->call(hurry);
    ASSERT_TRUE(resp.ok()) << resp.status().toString();
    EXPECT_EQ(resp->status.code(), StatusCode::DeadlineExceeded);

    leader_thread.join();
    EXPECT_GE(counter(server, "serve.cancel.detached"), 1.0);
    server.requestDrain();
    server.join();
}

TEST(ServeServer, AllWaitersExpiredCancelsTheFlightAndServerRecovers)
{
    Server server(ServerConfig{});
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    Request req;
    req.app = "pr";
    req.dataset = "co";
    req.iters = 400;
    req.deadline_ms = 10; // expires while the run is in flight
    StatusOr<Response> resp = client->call(req);
    ASSERT_TRUE(resp.ok()) << resp.status().toString();
    EXPECT_EQ(resp->status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(resp->retry_after_ms, 0);

    // The sole waiter detached, so the flight was put down.
    EXPECT_GE(counter(server, "serve.cancel.flights_cancelled"), 1.0);
    // The abandoned simulation unwinds within its poll budget and
    // the server keeps serving: a fresh (different-key) run works.
    Request small;
    small.app = "pr";
    small.dataset = "ca";
    small.iters = 2;
    StatusOr<Response> ok_resp = client->call(small);
    ASSERT_TRUE(ok_resp.ok()) << ok_resp.status().toString();
    EXPECT_TRUE(ok_resp->status.ok()) << ok_resp->status.toString();

    server.requestDrain();
    server.join();
}

TEST(ServeServer, LeaderConnectionDeathLeavesFollowersServed)
{
    // The satellite case: the leader's TCP connection dies mid-sim.
    // The flight must keep running for the follower, who gets a
    // terminal response instead of a hang.
    Server server(ServerConfig{});
    ASSERT_TRUE(server.start().ok());

    Request req;
    req.app = "pr";
    req.dataset = "co";
    req.iters = 400;

    // Leader sends the request raw and then dies.
    StatusOr<serve::Socket> raw =
        serve::connectTcp(loopback(server.port()));
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(
        serve::writeAll(*raw, serve::encodeRequest(req) + "\n").ok());
    while (counter(server, "serve.sim_runs") < 1.0)
        std::this_thread::yield();

    StatusOr<Client> follower =
        Client::connect(loopback(server.port()));
    ASSERT_TRUE(follower.ok());
    raw->close(); // the leader is gone; its flight must not be

    StatusOr<Response> resp = follower->call(req);
    ASSERT_TRUE(resp.ok()) << resp.status().toString();
    EXPECT_TRUE(resp->status.ok()) << resp->status.toString();
    EXPECT_GT(resp->cycles, 0);

    server.requestDrain();
    server.join();
}

// ---------------------------------------------------------------
// Connection hardening

TEST(ServeServer, IdleTimeoutAnswersDeadlineExceededAndCloses)
{
    ServerConfig config;
    config.idle_timeout_ms = 80;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<serve::Socket> sock =
        serve::connectTcp(loopback(server.port()));
    ASSERT_TRUE(sock.ok());
    serve::LineReader reader(*sock);

    // Send nothing: the server must answer with a DeadlineExceeded
    // response and close, within the idle budget (plus slack).
    StatusOr<std::string> line = reader.readLine();
    ASSERT_TRUE(line.ok()) << line.status().toString();
    StatusOr<Response> resp = serve::parseResponse(*line);
    ASSERT_TRUE(resp.ok()) << *line;
    EXPECT_EQ(resp->status.code(), StatusCode::DeadlineExceeded);

    StatusOr<std::string> eof = reader.readLine();
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.status().code(), StatusCode::IoError);
    EXPECT_EQ(counter(server, "serve.timeout.idle"), 1.0);

    server.requestDrain();
    server.join();
}

TEST(ServeServer, OversizedRequestLineIsRejectedAndConnectionCloses)
{
    ServerConfig config;
    config.max_request_bytes = 64;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<serve::Socket> sock =
        serve::connectTcp(loopback(server.port()));
    ASSERT_TRUE(sock.ok());
    // No newline needed: the cap must trip on buffered bytes alone,
    // or a peer could stream an unbounded "line".
    const std::string bomb(256, 'x');
    ASSERT_TRUE(serve::writeAll(*sock, bomb).ok());

    serve::LineReader reader(*sock);
    StatusOr<std::string> line = reader.readLine();
    ASSERT_TRUE(line.ok()) << line.status().toString();
    StatusOr<Response> resp = serve::parseResponse(*line);
    ASSERT_TRUE(resp.ok()) << *line;
    EXPECT_EQ(resp->status.code(), StatusCode::InvalidInput);

    StatusOr<std::string> eof = reader.readLine();
    EXPECT_FALSE(eof.ok());
    EXPECT_EQ(counter(server, "serve.conn.oversized_line"), 1.0);

    server.requestDrain();
    server.join();
}

TEST(ServeServer, KeepAliveRequestLimitClosesTheConnection)
{
    ServerConfig config;
    config.max_requests_per_conn = 2;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    Request ping;
    ping.op = Request::Op::Ping;
    for (int i = 0; i < 2; ++i) {
        StatusOr<Response> pong = client->call(ping);
        ASSERT_TRUE(pong.ok()) << pong.status().toString();
        EXPECT_TRUE(pong->status.ok());
    }
    // The third request hits a closed connection.
    StatusOr<Response> refused = client->call(ping);
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(counter(server, "serve.conn.keepalive_closed"), 1.0);

    server.requestDrain();
    server.join();
}

// ---------------------------------------------------------------
// Client retry policy

TEST(ServeClient, RetryReconnectsAcrossKeepAliveCloses)
{
    ServerConfig config;
    config.max_requests_per_conn = 1; // every request kills the conn
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    serve::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_backoff_ms = 1;

    Request ping;
    ping.op = Request::Op::Ping;
    for (int i = 0; i < 3; ++i) {
        StatusOr<Response> pong =
            client->callWithRetry(ping, policy);
        ASSERT_TRUE(pong.ok())
            << "round " << i << ": " << pong.status().toString();
        EXPECT_TRUE(pong->status.ok());
    }

    server.requestDrain();
    server.join();
}

TEST(ServeClient, RetryGivesUpAfterMaxAttemptsOnPersistentShed)
{
    ServerConfig config;
    config.admission.max_in_flight = 0; // shed everything
    config.admission.retry_after_ms = 1;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    StatusOr<Client> client = Client::connect(loopback(server.port()));
    ASSERT_TRUE(client.ok());
    serve::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_backoff_ms = 1;

    Request req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 2;
    StatusOr<Response> resp = client->callWithRetry(req, policy);
    ASSERT_TRUE(resp.ok()) << resp.status().toString();
    EXPECT_EQ(resp->status.code(), StatusCode::ResourceExhausted);
    // Every attempt really went to the server.
    EXPECT_EQ(counter(server, "serve.shed_total"), 3.0);

    server.requestDrain();
    server.join();
}

} // namespace
} // namespace sparsepipe
