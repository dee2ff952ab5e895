// Lightweight precondition checking used across the library.
//
// All public API boundaries validate their arguments and throw
// std::invalid_argument / std::out_of_range with a formatted message.
// Hot inner loops (conv kernels, GEMM) do not re-check; they are only
// reachable through validated entry points.
//
// Message contract: a check takes its message as streamable parts,
//   check_arg(x.dim() == 4, "Conv2d: expected [N, ", c, ", H, W], got ",
//             x.shape());
// and streams them only when the check fails, through a cold out-of-line
// helper, so a passing check is one compare and one branch. The thrown
// text is exactly msg_cat(parts...). Pass the parts themselves, never a
// pre-built msg_cat(...) or shape_str(...) message: that formats a string
// on every call, pass or fail, and checks sit on every compiled-plan node
// of every served frame. CI rejects such arguments under src/.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mtlsplit {

namespace detail {

template <typename T>
void put_part(std::ostream& os, const T& part) {
  os << part;
}

/// A Shape part (std::vector<int64_t>) prints as "[2, 3]"; shape_str too.
inline void put_part(std::ostream& os, const std::vector<int64_t>& shape) {
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) os << (i ? ", " : "") << shape[i];
  os << ']';
}

}  // namespace detail

/// Builds a message from streamable parts: msg_cat("bad dim ", 3, " of ", 4).
template <typename... Parts>
std::string msg_cat(const Parts&... parts) {
  std::ostringstream os;
  (detail::put_part(os, parts), ...);
  return os.str();
}

namespace detail {

/// Failure path of check_arg / check_bounds: formats and throws. Callers
/// pass decayed part types, so checks whose parts differ only in literal
/// length share one instantiation.
template <typename Error, typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void throw_check(
    const Parts&... parts) {
  throw Error(msg_cat(parts...));
}

}  // namespace detail

/// Throws std::invalid_argument with msg_cat(parts...) when @p cond is
/// false; the parts are not formatted when it holds.
template <typename... Parts>
inline void check_arg(bool cond, const Parts&... parts) {
  if (!cond) [[unlikely]]
    detail::throw_check<std::invalid_argument, std::decay_t<const Parts>...>(
        parts...);
}

/// Throws std::out_of_range with msg_cat(parts...) when @p cond is false;
/// the parts are not formatted when it holds.
template <typename... Parts>
inline void check_bounds(bool cond, const Parts&... parts) {
  if (!cond) [[unlikely]]
    detail::throw_check<std::out_of_range, std::decay_t<const Parts>...>(
        parts...);
}

}  // namespace mtlsplit
