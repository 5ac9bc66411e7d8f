#ifndef MARITIME_COMMON_RESULT_H_
#define MARITIME_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

namespace maritime {

/// Either a value of type `T` or a non-OK `Status` explaining why the value
/// could not be produced. Analogous to `absl::StatusOr<T>` / `arrow::Result`.
///
/// Usage:
///   Result<AisMessage> r = DecodePayload(bits);
///   if (!r.ok()) return r.status();
///   Use(r.value());
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs from a value (implicit on purpose, mirroring StatusOr).
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status. Aborts (assert) if `status.ok()`,
  /// because an OK Result must carry a value.
  Result(Status status) : rep_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!std::get<Status>(rep_).ok() &&
           "Result constructed from OK status without a value");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The status: OK when a value is held. The rvalue form moves the
  /// message out instead of copying it.
  Status status() const& {
    if (ok()) return Status::OK();
    return std::get<Status>(rep_);
  }
  Status status() && {
    if (ok()) return Status::OK();
    return std::get<Status>(std::move(rep_));
  }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  /// Returns the value, or `fallback` on error.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

 private:
  std::variant<Status, T> rep_;
};

}  // namespace maritime

#endif  // MARITIME_COMMON_RESULT_H_
