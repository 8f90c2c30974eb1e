// Lightweight precondition / invariant checking.
//
// CHOIR_EXPECT throws choir::Error on violation. Simulation code uses it
// for conditions that indicate misuse of an API or a broken invariant;
// hot paths that must not branch use CHOIR_ASSUME_DBG, which compiles out
// in release builds. Decoders of external files use CHOIR_CHECK_FORMAT,
// which throws the recoverable choir::FormatError instead.
#pragma once

#include <stdexcept>
#include <string>

namespace choir {

/// Base exception for all Choir errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed external input: a truncated or corrupt trace/pcap file, an
/// unparsable fault plan. Distinct from Error (API misuse / broken
/// invariants) so callers that load untrusted files can recover from
/// bad data without masking genuine bugs.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void fail(const char* cond, const char* file, int line,
                              const std::string& msg) {
  std::string full = std::string(file) + ":" + std::to_string(line) +
                     ": expectation failed: " + cond;
  if (!msg.empty()) full += " (" + msg + ")";
  throw Error(full);
}
}  // namespace detail

}  // namespace choir

#define CHOIR_EXPECT(cond, msg)                                     \
  do {                                                              \
    if (!(cond)) ::choir::detail::fail(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

/// Loader-side validation: throws FormatError carrying exactly `msg` (no
/// file:line prefix) when `cond` is false. `msg` is evaluated only on
/// failure, so a per-record check can name its record at no cost when the
/// record is well formed.
#define CHOIR_CHECK_FORMAT(cond, msg)                          \
  do {                                                         \
    if (!(cond)) [[unlikely]] throw ::choir::FormatError(msg); \
  } while (0)

#ifdef NDEBUG
#define CHOIR_ASSUME_DBG(cond) ((void)0)
#else
#define CHOIR_ASSUME_DBG(cond) CHOIR_EXPECT(cond, "")
#endif
