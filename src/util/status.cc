#include "util/status.hh"

#include <cstdarg>
#include <cstdio>
#include <new>

#include "util/logging.hh"

namespace sparsepipe {

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:                return "ok";
      case StatusCode::InvalidInput:      return "invalid-input";
      case StatusCode::IoError:           return "io-error";
      case StatusCode::ResourceExhausted: return "resource-exhausted";
      case StatusCode::Cancelled:         return "cancelled";
      case StatusCode::DeadlineExceeded:  return "deadline-exceeded";
      case StatusCode::Internal:          return "internal";
    }
    return "?";
}

std::string
Status::toString() const
{
    if (ok())
        return "ok";
    std::string out = statusCodeName(code_);
    out += ": ";
    out += message_;
    if (!context_.empty()) {
        out += " (";
        for (std::size_t i = 0; i < context_.size(); ++i) {
            if (i)
                out += "; ";
            out += context_[i];
        }
        out += ")";
    }
    return out;
}

namespace {

Status
vformatStatus(StatusCode code, const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    const int need = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string message(need > 0 ? static_cast<std::size_t>(need) : 0,
                        '\0');
    if (need > 0)
        std::vsnprintf(message.data(), message.size() + 1, fmt, args);
    return Status(code, std::move(message));
}

} // anonymous namespace

#define SPARSEPIPE_STATUS_MAKER(fn, code)                         \
    Status fn(const char *fmt, ...)                               \
    {                                                             \
        va_list args;                                             \
        va_start(args, fmt);                                      \
        Status status = vformatStatus(StatusCode::code, fmt, args); \
        va_end(args);                                             \
        return status;                                            \
    }

SPARSEPIPE_STATUS_MAKER(invalidInput, InvalidInput)
SPARSEPIPE_STATUS_MAKER(ioError, IoError)
SPARSEPIPE_STATUS_MAKER(resourceExhausted, ResourceExhausted)
SPARSEPIPE_STATUS_MAKER(cancelledError, Cancelled)
SPARSEPIPE_STATUS_MAKER(deadlineExceeded, DeadlineExceeded)
SPARSEPIPE_STATUS_MAKER(internalError, Internal)

#undef SPARSEPIPE_STATUS_MAKER

SpError::SpError(Status status)
    : status_(std::move(status)), what_(status_.toString())
{
}

void
throwIfError(Status status)
{
    if (!status.ok())
        throw SpError(std::move(status));
}

Status
statusFromCurrentException()
{
    try {
        throw;
    } catch (const SpError &e) {
        return e.status();
    } catch (const std::bad_alloc &) {
        return resourceExhausted("allocation failed");
    } catch (const std::exception &e) {
        return internalError("unexpected exception: %s", e.what());
    } catch (...) {
        return internalError("unknown exception");
    }
}

namespace detail {

void
statusOrPanicOkWithoutValue()
{
    sp_panic("StatusOr constructed from an Ok status without a value");
    __builtin_unreachable();
}

void
statusOrPanicNoValue(const Status &status)
{
    sp_panic("StatusOr::value() on error: %s",
             status.toString().c_str());
    __builtin_unreachable();
}

} // namespace detail

} // namespace sparsepipe
