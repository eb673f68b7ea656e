/**
 * @file
 * Structured recoverable errors for the p10ee library.
 *
 * The library distinguishes two failure families:
 *  - programming errors (violated invariants) abort via P10_ASSERT —
 *    silent state corruption in a power model is worse than a crash;
 *  - *input* errors (user configs, CLI flags, campaign specs, corrupt
 *    counter readings) are recoverable and must never kill a batch
 *    sweep, so they travel as Error values through Expected<T>.
 *
 * Expected<T> is a minimal std::expected stand-in (the toolchain's
 * library support predates it): either a value or an Error, checked at
 * access time. Expected<void> (aliased Status) carries success/failure
 * only.
 */

#ifndef P10EE_COMMON_ERROR_H
#define P10EE_COMMON_ERROR_H

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "common/assert.h"

namespace p10ee::common {

/** Machine-inspectable failure category. */
enum class ErrorCode {
    InvalidArgument, ///< malformed user input (CLI flags, spec fields)
    InvalidConfig,   ///< a CoreConfig / campaign config fails validation
    NotFound,        ///< named entity (workload, component) unknown
    Timeout,         ///< a bounded run exceeded its cycle budget
    Transient,       ///< infrastructure hiccup; retrying may succeed
    Overloaded,      ///< a bounded queue rejected the request
    Cancelled,       ///< the caller withdrew the request
    Internal,        ///< unexpected condition surfaced as a value
};

/** Stable lower-case name of @p code (log/CSV friendly). */
inline const char*
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::InvalidArgument: return "invalid_argument";
      case ErrorCode::InvalidConfig: return "invalid_config";
      case ErrorCode::NotFound: return "not_found";
      case ErrorCode::Timeout: return "timeout";
      case ErrorCode::Transient: return "transient";
      case ErrorCode::Overloaded: return "overloaded";
      case ErrorCode::Cancelled: return "cancelled";
      case ErrorCode::Internal: return "internal";
    }
    return "unknown";
}

/** One recoverable failure: a category plus a human-readable message. */
struct Error
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;

    /**
     * Structured origin of a validation failure: the request/spec key
     * that failed (e.g. "smt", "cores"), empty when the error is not
     * tied to one field. Surfaced verbatim on the NDJSON `error` line
     * and in CLI exit-2 messages; diagnostic only — equality and
     * on-disk cache serialization ignore it.
     */
    std::string field;

    Error() = default;
    Error(ErrorCode c, std::string msg)
        : code(c), message(std::move(msg))
    {}
    Error(ErrorCode c, std::string msg, std::string fld)
        : code(c), message(std::move(msg)), field(std::move(fld))
    {}

    /** "invalid_config: <message>", with " (field: <f>)" when set. */
    std::string
    str() const
    {
        std::string s =
            std::string(errorCodeName(code)) + ": " + message;
        if (!field.empty())
            s += " (field: " + field + ")";
        return s;
    }

    /** This error with @p fld recorded as the failing field. */
    Error
    withField(std::string fld) &&
    {
        field = std::move(fld);
        return std::move(*this);
    }

    static Error
    invalidArgument(std::string msg)
    {
        return {ErrorCode::InvalidArgument, std::move(msg)};
    }

    static Error
    invalidConfig(std::string msg)
    {
        return {ErrorCode::InvalidConfig, std::move(msg)};
    }

    static Error
    notFound(std::string msg)
    {
        return {ErrorCode::NotFound, std::move(msg)};
    }

    static Error
    timeout(std::string msg)
    {
        return {ErrorCode::Timeout, std::move(msg)};
    }

    static Error
    transient(std::string msg)
    {
        return {ErrorCode::Transient, std::move(msg)};
    }

    static Error
    overloaded(std::string msg)
    {
        return {ErrorCode::Overloaded, std::move(msg)};
    }

    static Error
    cancelled(std::string msg)
    {
        return {ErrorCode::Cancelled, std::move(msg)};
    }
};

/**
 * A value of type T or an Error. Implicitly constructible from either
 * side so `return Error::invalidConfig(...)` and `return value` both
 * work; access is invariant-checked (reading the wrong side is a
 * programming error, not a recoverable one).
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : v_(std::move(value)) {}
    Expected(Error error) : v_(std::move(error)) {}

    /** True when a value is held. */
    bool ok() const { return std::holds_alternative<T>(v_); }
    explicit operator bool() const { return ok(); }

    /** The held value. @pre ok() */
    const T&
    value() const&
    {
        P10_ASSERT(ok(), "Expected::value() on an error");
        return std::get<T>(v_);
    }

    T&
    value() &
    {
        P10_ASSERT(ok(), "Expected::value() on an error");
        return std::get<T>(v_);
    }

    T&&
    value() &&
    {
        P10_ASSERT(ok(), "Expected::value() on an error");
        return std::get<T>(std::move(v_));
    }

    /** The held value, or @p fallback when this is an error. */
    T
    valueOr(T fallback) const
    {
        return ok() ? std::get<T>(v_) : std::move(fallback);
    }

    /** The held error. @pre !ok() */
    const Error&
    error() const
    {
        P10_ASSERT(!ok(), "Expected::error() on a value");
        return std::get<Error>(v_);
    }

  private:
    std::variant<T, Error> v_;
};

/** Success-or-Error: the T-less Expected. */
template <>
class [[nodiscard]] Expected<void>
{
  public:
    /** Default construction is success. */
    Expected() = default;
    Expected(Error error) : err_(std::move(error)) {}

    bool ok() const { return !err_.has_value(); }
    explicit operator bool() const { return ok(); }

    const Error&
    error() const
    {
        P10_ASSERT(!ok(), "Expected::error() on a value");
        return *err_;
    }

  private:
    std::optional<Error> err_;
};

/** Conventional spelling for value-less results. */
using Status = Expected<void>;

/** Success Status (reads better than `return {}` at call sites). */
inline Status
okStatus()
{
    return Status();
}

} // namespace p10ee::common

#endif // P10EE_COMMON_ERROR_H
