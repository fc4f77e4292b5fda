// Lightweight runtime-invariant checking.
//
// DQME_CHECK is always on (also in release builds): protocol invariants in a
// mutual exclusion library are exactly the conditions whose silent violation
// would make every downstream result meaningless, so we pay the branch.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace dqme {

// Thrown when an internal invariant fails. Tests assert on it; binaries let
// it terminate with the diagnostic message.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "DQME_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}
}  // namespace detail

// A site count checked before use as a container size: member-initializer
// lists size vectors from it before a constructor body could check it, and
// a negative count would surface as std::length_error instead.
inline size_t site_count(int n) {
  if (n < 1)
    detail::check_failed("n >= 1", __FILE__, __LINE__,
                         "need at least one site, got " + std::to_string(n));
  return static_cast<size_t>(n);
}

}  // namespace dqme

#define DQME_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr))                                                      \
      ::dqme::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
  } while (0)

#define DQME_CHECK_MSG(expr, msg)                                     \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream dqme_check_os_;                              \
      dqme_check_os_ << msg;                                          \
      ::dqme::detail::check_failed(#expr, __FILE__, __LINE__,         \
                                   dqme_check_os_.str());             \
    }                                                                 \
  } while (0)
