#include "serve/admission.hh"

namespace sparsepipe::serve {

void
Ticket::release()
{
    if (controller_) {
        controller_->release(bytes_, shared_key_);
        controller_ = nullptr;
    }
}

StatusOr<Ticket>
AdmissionController::tryAdmit(const Charge &charge)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The first ticket to hold a shared key charges its bytes.
    const bool first_holder = !charge.shared_key.empty() &&
                              !shared_.count(charge.shared_key);
    const std::uint64_t bytes =
        charge.own_bytes + (first_holder ? charge.shared_bytes : 0);
    if (config_.max_in_flight >= 0 &&
        stats_.in_flight >=
            static_cast<std::uint64_t>(config_.max_in_flight)) {
        ++stats_.shed_queue;
        return resourceExhausted(
            "server at capacity (%llu runs in flight, bound %d)",
            static_cast<unsigned long long>(stats_.in_flight),
            config_.max_in_flight);
    }
    if (config_.memory_budget_bytes > 0 && stats_.in_flight > 0 &&
        stats_.in_flight_bytes + bytes >
            config_.memory_budget_bytes) {
        ++stats_.shed_memory;
        return resourceExhausted(
            "memory budget exhausted (%llu + %llu bytes over "
            "%llu)",
            static_cast<unsigned long long>(stats_.in_flight_bytes),
            static_cast<unsigned long long>(bytes),
            static_cast<unsigned long long>(
                config_.memory_budget_bytes));
    }
    ++stats_.admitted;
    ++stats_.in_flight;
    stats_.in_flight_bytes += bytes;
    if (!charge.shared_key.empty()) {
        Shared &shared = shared_[charge.shared_key];
        if (first_holder)
            shared.bytes = charge.shared_bytes;
        ++shared.holders;
    }
    return Ticket(this, charge.own_bytes, charge.shared_key);
}

void
AdmissionController::release(std::uint64_t bytes,
                             const std::string &shared_key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.in_flight;
    stats_.in_flight_bytes -= bytes;
    if (shared_key.empty())
        return;
    const auto it = shared_.find(shared_key);
    if (--it->second.holders == 0) {
        stats_.in_flight_bytes -= it->second.bytes;
        shared_.erase(it);
    }
}

AdmissionStats
AdmissionController::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace sparsepipe::serve
