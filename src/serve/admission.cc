#include "serve/admission.hh"

namespace sparsepipe::serve {

void
Ticket::release()
{
    if (controller_) {
        controller_->release(bytes_, shared_key_, pattern_key_);
        controller_ = nullptr;
    }
}

StatusOr<Ticket>
AdmissionController::tryAdmit(const Charge &charge)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The first ticket to hold a shared key charges its bytes.
    const auto firstHolder = [this](const std::string &key) {
        return !key.empty() && !shared_.count(key);
    };
    const bool first_operand = firstHolder(charge.shared_key);
    const bool first_pattern = firstHolder(charge.pattern_key);
    const std::uint64_t bytes =
        charge.own_bytes + (first_operand ? charge.shared_bytes : 0) +
        (first_pattern ? charge.pattern_bytes : 0);
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
    const auto hold = [this](const std::string &key,
                             std::uint64_t key_bytes) {
        if (key.empty())
            return;
        Shared &shared = shared_[key];
        if (shared.holders++ == 0)
            shared.bytes = key_bytes;
    };
    hold(charge.shared_key, charge.shared_bytes);
    hold(charge.pattern_key, charge.pattern_bytes);
    return Ticket(this, charge.own_bytes, charge.shared_key,
                  charge.pattern_key);
}

void
AdmissionController::release(std::uint64_t bytes,
                             const std::string &shared_key,
                             const std::string &pattern_key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.in_flight;
    stats_.in_flight_bytes -= bytes;
    unhold(shared_key);
    unhold(pattern_key);
}

void
AdmissionController::unhold(const std::string &key)
{
    if (key.empty())
        return;
    const auto it = shared_.find(key);
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
