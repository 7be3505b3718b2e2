/**
 * @file
 * In-flight request coalescing: identical work shares one execution.
 *
 * When N clients ask for the same (app, dataset, config) at once —
 * the cache-stampede shape — the prepared-operand cache already
 * deduplicates *preprocessing*, but each request would still run its
 * own simulation.  The Coalescer closes that gap: the first request
 * for a key becomes the *leader* of a flight; requests arriving while
 * the flight is in progress become *followers* and wait on its result
 * instead of simulating.  The flight is removed the moment it
 * completes, so coalescing never serves stale results — a request
 * arriving after completion starts a fresh run (which then hits the
 * operand caches).
 *
 * Waiting is deadline-aware.  Every waiter (the leader included — in
 * the serve daemon the simulation itself runs on a worker pool, not
 * on the leader's connection thread) passes its own deadline to
 * wait(); a waiter whose deadline expires *detaches* from the flight
 * and gets nullptr back, without disturbing the computation the
 * remaining waiters are still riding.  Only when the LAST waiter
 * detaches from an unfinished flight is the flight's CancelToken
 * cancelled, so a simulation nobody is waiting for stops burning a
 * pool slot within its cancellation poll budget.
 *
 * Followers share the flight's outcome wholesale, including
 * failures: if the leader is shed by admission or the sim dies on a
 * deadline, every coalesced follower sees that Status.  That is the
 * honest semantics — the followers chose to ride a run they did not
 * control.
 *
 * Results travel as shared_ptr<const Result> so a follower can
 * outlive both the leader and the flight entry.
 */

#ifndef SPARSEPIPE_SERVE_COALESCE_HH
#define SPARSEPIPE_SERVE_COALESCE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "util/status.hh"

namespace sparsepipe::serve {

/** Counter snapshot of one Coalescer. */
struct CoalesceStats
{
    /** Flights executed (distinct simulations). */
    std::uint64_t leaders = 0;
    /** Requests served by somebody else's flight. */
    std::uint64_t followers = 0;
    /** Waiters whose deadline expired before the flight finished. */
    std::uint64_t detached = 0;
    /** Flights cancelled because every waiter detached. */
    std::uint64_t flights_cancelled = 0;
};

/** Keyed single-flight table; Result is shared across waiters. */
template <typename Result>
class Coalescer
{
  public:
    /**
     * One in-progress computation.  Waiters hold it by shared_ptr so
     * a detached flight (and its CancelToken, which the simulation
     * polls) stays alive until the computation itself lets go.
     */
    class Flight
    {
      public:
        explicit Flight(const CancelToken *parent) : token_(parent) {}

        /** Token the flight's computation should poll. */
        CancelToken &token() { return token_; }

      private:
        friend class Coalescer;

        CancelToken token_;
        std::string key_;
        std::mutex mutex_;
        std::condition_variable cv_;
        std::shared_ptr<const Result> result_;
        std::exception_ptr error_;
        bool done_ = false;
        int waiters_ = 0;
    };

    using FlightPtr = std::shared_ptr<Flight>;
    using Deadline =
        std::optional<std::chrono::steady_clock::time_point>;

    /** Result of joining a key: the flight plus the leader bit. */
    struct Join
    {
        FlightPtr flight;
        /** True when this caller must start the computation. */
        bool leader = false;
    };

    struct Outcome
    {
        std::shared_ptr<const Result> result;
        /** False when this request rode another's flight. */
        bool leader = false;
    };

    /**
     * Join the flight for `key`, creating it if absent.  The caller
     * that created it (leader = true) must eventually call
     * complete() or completeError() exactly once; every caller is
     * registered as a waiter and should call wait().  The flight's
     * token chains to `parent` (e.g. the server's abort token) when
     * given.
     */
    Join
    begin(const std::string &key, const CancelToken *parent = nullptr)
    {
        Join j;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto [it, inserted] = flights_.try_emplace(key);
            if (inserted) {
                ++stats_.leaders;
                it->second = std::make_shared<Flight>(parent);
                it->second->key_ = key;
                j.leader = true;
            } else {
                ++stats_.followers;
            }
            j.flight = it->second;
        }
        std::lock_guard<std::mutex> lock(j.flight->mutex_);
        ++j.flight->waiters_;
        return j;
    }

    /**
     * Remove the flight from the table, then fulfill it.  In that
     * order, a waiter that wakes and asks for the key again leads a
     * fresh flight instead of joining the finished one.
     */
    void
    complete(const std::string &key, const FlightPtr &flight,
             Result result)
    {
        eraseFlight(key, flight);
        {
            std::lock_guard<std::mutex> lock(flight->mutex_);
            flight->result_ =
                std::make_shared<const Result>(std::move(result));
            flight->done_ = true;
        }
        flight->cv_.notify_all();
    }

    /** complete(), with an exception (wait() rethrows it). */
    void
    completeError(const std::string &key, const FlightPtr &flight,
                  std::exception_ptr error)
    {
        eraseFlight(key, flight);
        {
            std::lock_guard<std::mutex> lock(flight->mutex_);
            flight->error_ = std::move(error);
            flight->done_ = true;
        }
        flight->cv_.notify_all();
    }

    /**
     * Wait for the flight's outcome.  Returns the shared result, or
     * nullptr when `deadline` expired first — in which case this
     * waiter has detached, and if it was the last one on an
     * unfinished flight the flight's token has been cancelled.
     * Rethrows the flight's stored exception when it failed.
     */
    std::shared_ptr<const Result>
    wait(const FlightPtr &flight, const Deadline &deadline = {})
    {
        bool detached = false;
        bool cancelled = false;
        std::shared_ptr<const Result> out;
        std::exception_ptr error;
        {
            std::unique_lock<std::mutex> lock(flight->mutex_);
            auto finished = [&] { return flight->done_; };
            if (deadline) {
                flight->cv_.wait_until(lock, *deadline, finished);
            } else {
                flight->cv_.wait(lock, finished);
            }
            --flight->waiters_;
            if (flight->done_) {
                out = flight->result_;
                error = flight->error_;
            } else {
                detached = true;
                if (flight->waiters_ == 0) {
                    flight->token_.cancel();
                    cancelled = true;
                }
            }
        }
        if (cancelled) {
            // A cancelled flight is doomed; take it out of the table
            // now so a fresh request for the key starts a fresh run
            // instead of joining a computation that will unwind with
            // Cancelled.
            eraseFlight(flight->key_, flight);
        }
        if (detached || cancelled) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (detached)
                ++stats_.detached;
            if (cancelled)
                ++stats_.flights_cancelled;
        }
        if (error)
            std::rethrow_exception(error);
        return out;
    }

    /**
     * Legacy synchronous form: execute `compute()` for `key` on the
     * calling thread, or join the in-flight execution.  If compute()
     * throws, the exception propagates to the leader *and* every
     * follower.
     */
    template <typename Compute>
    Outcome
    runOrJoin(const std::string &key, Compute compute)
    {
        Join j = begin(key);
        if (!j.leader)
            return Outcome{wait(j.flight), false};
        try {
            complete(key, j.flight, compute());
        } catch (...) {
            completeError(key, j.flight, std::current_exception());
            throw;
        }
        std::lock_guard<std::mutex> lock(j.flight->mutex_);
        --j.flight->waiters_;
        return Outcome{j.flight->result_, true};
    }

    /** @return flights currently executing. */
    std::size_t
    inFlight() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return flights_.size();
    }

    CoalesceStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

  private:
    void
    eraseFlight(const std::string &key, const FlightPtr &flight)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = flights_.find(key);
        // Only erase our own entry: a waiter may have detached and a
        // NEW flight for the same key may already be in the table.
        if (it != flights_.end() && it->second == flight)
            flights_.erase(it);
    }

    mutable std::mutex mutex_;
    std::map<std::string, FlightPtr> flights_;
    CoalesceStats stats_;
};

} // namespace sparsepipe::serve

#endif // SPARSEPIPE_SERVE_COALESCE_HH
