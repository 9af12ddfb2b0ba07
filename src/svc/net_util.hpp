// Small POSIX socket helpers shared by the epoll event loop and the
// load-generator client harness. All are no-ops on platforms without BSD
// sockets.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define HETERO_SVC_HAVE_SOCKETS 1

#include <csignal>
#include <fcntl.h>
#include <sys/resource.h>

namespace hetero::svc::net {

/// Thread-safe strerror: std::strerror may return a pointer into shared
/// static storage, so concurrent event-loop workers logging setup failures
/// could race on it. This copies through strerror_r into a caller-owned
/// string instead.
inline std::string errno_string(int err) {
  char buf[256];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // GNU strerror_r: returns the message pointer (buf used only as backing).
  const char* msg = ::strerror_r(err, buf, sizeof buf);
  return std::string(msg != nullptr ? msg : "unknown error");
#else
  // POSIX strerror_r: fills buf, returns 0 on success.
  if (::strerror_r(err, buf, sizeof buf) != 0)
    return "error " + std::to_string(err);
  return std::string(buf);
#endif
}

/// A write into a half-closed socket must surface as EPIPE, not kill the
/// process. Idempotent; every socket front end calls it on startup (the
/// send paths additionally pass MSG_NOSIGNAL where available).
inline void ignore_sigpipe() noexcept {
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &sa, nullptr);
}

/// O_NONBLOCK on `fd`; returns false on fcntl failure.
inline bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Best-effort bump of RLIMIT_NOFILE to its hard limit (10k-connection
/// servers and clients outgrow the common 1024 soft default). Returns the
/// soft limit after the attempt.
inline std::size_t raise_nofile_limit() noexcept {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < lim.rlim_max) {
    rlimit raised = lim;
    raised.rlim_cur = lim.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

}  // namespace hetero::svc::net

#else

namespace hetero::svc::net {
inline void ignore_sigpipe() noexcept {}
inline bool set_nonblocking(int) noexcept { return false; }
inline std::size_t raise_nofile_limit() noexcept { return 0; }
}  // namespace hetero::svc::net

#endif
