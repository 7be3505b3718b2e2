/**
 * @file
 * Crash-resumable sweep journal.
 *
 * A sweep (explore::runSweep) appends one line per finished job to a
 * journal file:
 *
 *   ok app=pr dataset=gy iters=2 seed=1592614637 buffer_kb=256 ...
 *   fail deadline-exceeded app=knn dataset=co ...
 *
 * Each line is flushed as soon as the job completes, so a crashed or
 * killed sweep leaves a prefix of truthful records behind.  Rerunning
 * with resume loads the journal first and skips every job whose
 * canonical key (explore::jobKey) already has an `ok` record; failed
 * jobs are retried.  Keys are canonical job specs rather than file
 * positions, so editing or reordering the spec between runs does not
 * confuse resumption.
 */

#ifndef SPARSEPIPE_RUNNER_JOURNAL_HH
#define SPARSEPIPE_RUNNER_JOURNAL_HH

#include <fstream>
#include <mutex>
#include <string>
#include <unordered_set>

#include "util/status.hh"

namespace sparsepipe::runner {

/**
 * Append-only completion log for one sweep.  Thread-safe: workers
 * record completions concurrently; each record is written and
 * flushed under one mutex.
 */
class SweepJournal
{
  public:
    SweepJournal() = default;
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open the journal at `path`.  With `resume` set, first load any
     * existing records (a missing file is fine — nothing to resume),
     * then reopen for append; without it, truncate and start fresh.
     * IoError if the file cannot be opened for writing, InvalidInput
     * on a malformed record line.
     */
    Status init(const std::string &path, bool resume);

    /** Did a previous run record this key as completed ok? */
    bool completed(const std::string &key) const;

    /** Number of `ok` records loaded from a previous run. */
    std::size_t resumedCount() const { return resumed_; }

    /**
     * Number of `ok` records appended by *this* run.  Sweeps report
     * it next to resumedCount() so an interrupted-and-resumed run
     * can prove how much work was actually redone (the explore CI
     * job asserts a second resume appends zero).
     */
    std::size_t okAppendedCount() const;

    /** Record a successful completion; flushed before returning. */
    void recordOk(const std::string &key);

    /** Record a failure with its status code; flushed immediately. */
    void recordFail(const std::string &key, StatusCode code);

  private:
    void append(const std::string &line);

    std::ofstream out_;
    std::unordered_set<std::string> done_;
    std::size_t resumed_ = 0;
    std::size_t ok_appended_ = 0;
    mutable std::mutex mutex_;
};

} // namespace sparsepipe::runner

#endif // SPARSEPIPE_RUNNER_JOURNAL_HH
