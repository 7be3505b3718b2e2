/**
 * @file
 * Admission control for the serve layer: bounded concurrency and a
 * memory budget, surfaced through the ResourceExhausted path.
 *
 * A daemon that accepts every request eventually dies of the load it
 * should have refused.  The controller tracks two gauges — in-flight
 * runs and their estimated resident bytes — against configured
 * bounds; tryAdmit() either returns an RAII Ticket (releasing the
 * slot when the run finishes) or a ResourceExhausted Status telling
 * the client how long to back off (`retry_after_ms`, the protocol's
 * Retry-After).  Shedding is deliberately cheap: one mutex, no
 * queueing, no blocking — a shed request never holds resources while
 * it waits, the *client* waits.
 *
 * A run's bytes come in three parts (Charge): its own (the
 * workspace's dense tensors), charged per ticket, and two shared
 * parts, each charged once while any admitted ticket holds its key:
 * the prepared operand's values, which every run of the same operand
 * reads, and the pattern the operand reads (index arrays and timing
 * buckets), which operands of several kinds may share.
 *
 * Coalesced followers bypass admission entirely (they piggyback on
 * the leader's slot), so a stampede of identical requests costs one
 * admission, not N.
 */

#ifndef SPARSEPIPE_SERVE_ADMISSION_HH
#define SPARSEPIPE_SERVE_ADMISSION_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "util/status.hh"

namespace sparsepipe::serve {

class AdmissionController;

/** The memory a run asks admission for (see the file comment). */
struct Charge
{
    /** Bytes only this run holds. */
    std::uint64_t own_bytes = 0;
    /** The operand the run shares with other runs; empty when none. */
    std::string shared_key;
    /** Bytes behind `shared_key`, charged once per key in flight. */
    std::uint64_t shared_bytes = 0;
    /**
     * The pattern the run's operand reads, which other operands may
     * share; empty when none.  A key space apart from shared_key's.
     */
    std::string pattern_key;
    /** Bytes behind `pattern_key`, charged once per key in flight. */
    std::uint64_t pattern_bytes = 0;
};

/** An admitted run's slot; releases on destruction (move-only). */
class [[nodiscard]] Ticket
{
  public:
    Ticket() = default;
    ~Ticket() { release(); }

    Ticket(Ticket &&other) noexcept
        : controller_(other.controller_), bytes_(other.bytes_),
          shared_key_(std::move(other.shared_key_)),
          pattern_key_(std::move(other.pattern_key_))
    {
        other.controller_ = nullptr;
    }
    Ticket &
    operator=(Ticket &&other) noexcept
    {
        if (this != &other) {
            release();
            controller_ = other.controller_;
            bytes_ = other.bytes_;
            shared_key_ = std::move(other.shared_key_);
            pattern_key_ = std::move(other.pattern_key_);
            other.controller_ = nullptr;
        }
        return *this;
    }
    Ticket(const Ticket &) = delete;
    Ticket &operator=(const Ticket &) = delete;

    bool admitted() const { return controller_ != nullptr; }

    /** Give the slot back early (idempotent). */
    void release();

  private:
    friend class AdmissionController;
    Ticket(AdmissionController *controller, std::uint64_t bytes,
           std::string shared_key, std::string pattern_key)
        : controller_(controller), bytes_(bytes),
          shared_key_(std::move(shared_key)),
          pattern_key_(std::move(pattern_key)) {}

    AdmissionController *controller_ = nullptr;
    /** The charge's own bytes. */
    std::uint64_t bytes_ = 0;
    std::string shared_key_;
    std::string pattern_key_;
};

/** Counter snapshot of one controller. */
struct AdmissionStats
{
    std::uint64_t admitted = 0;
    /** Refused for queue depth / for the memory budget. */
    std::uint64_t shed_queue = 0;
    std::uint64_t shed_memory = 0;
    /** Current gauges; each shared key's bytes count once. */
    std::uint64_t in_flight = 0;
    std::uint64_t in_flight_bytes = 0;
};

class AdmissionController
{
  public:
    struct Config
    {
        /** Max concurrently admitted runs (0 sheds everything —
         *  useful for drain tests; use a real bound in production). */
        int max_in_flight = 64;
        /** Estimated-resident-bytes budget (0 = unlimited). */
        std::uint64_t memory_budget_bytes = 0;
        /** Back-off hint stamped on shed responses. */
        int retry_after_ms = 50;
    };

    explicit AdmissionController(Config config) : config_(config) {}

    /**
     * Try to claim a slot for a run estimated at `charge`: its own
     * bytes, plus the bytes of each of its shared keys that no
     * in-flight ticket holds yet.
     * @return a live Ticket, or ResourceExhausted naming the bound
     * that refused (the caller stamps retryAfterMs() on the wire
     * response).  A single oversized request is still admitted when
     * the controller is otherwise idle — refusing it forever would
     * turn one big dataset into a permanent outage.
     */
    StatusOr<Ticket> tryAdmit(const Charge &charge);

    /** tryAdmit() for a run of `bytes` that shares nothing. */
    StatusOr<Ticket>
    tryAdmit(std::uint64_t bytes)
    {
        return tryAdmit(Charge{bytes, {}, 0, {}, 0});
    }

    int retryAfterMs() const { return config_.retry_after_ms; }

    AdmissionStats stats() const;

  private:
    friend class Ticket;
    void release(std::uint64_t bytes, const std::string &shared_key,
                 const std::string &pattern_key);
    /** Drop one holder of `key` (no-op when empty); the last one
     *  uncharges its bytes. */
    void unhold(const std::string &key);

    /** A shared key some in-flight ticket holds. */
    struct Shared
    {
        std::uint64_t bytes = 0;
        std::uint64_t holders = 0;
    };

    const Config config_;
    mutable std::mutex mutex_;
    AdmissionStats stats_;
    std::map<std::string, Shared> shared_;
};

} // namespace sparsepipe::serve

#endif // SPARSEPIPE_SERVE_ADMISSION_HH
