#include "reference/loadgen.hpp"

#include <sstream>

#include "svc/net_util.hpp"

#if defined(__linux__) && HETERO_SVC_HAVE_SOCKETS
#define HETERO_SVC_HAVE_LOADGEN 1
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <string_view>
#endif

namespace hetero::svc {

std::string LoadGenReport::to_json() const {
  std::ostringstream out;
  out << "{\"clients\":" << clients << ",\"connect_failures\":"
      << connect_failures << ",\"sent\":" << sent << ",\"received\":"
      << received << ",\"ok_true\":" << ok_true << ",\"ok_false\":"
      << ok_false << ",\"malformed\":" << malformed << ",\"dropped\":"
      << dropped << ",\"prologue_failures\":" << prologue_failures
      << ",\"bytes_in\":" << bytes_in << ",\"bytes_out\":"
      << bytes_out << ",\"elapsed_s\":" << elapsed_s
      << ",\"requests_per_s\":" << requests_per_s
      << ",\"latency_us\":{\"mean\":" << latency.mean_us()
      << ",\"p50\":" << latency.quantile_upper_us(0.50)
      << ",\"p90\":" << latency.quantile_upper_us(0.90)
      << ",\"p99\":" << latency.quantile_upper_us(0.99)
      << ",\"max\":" << latency.max_us << "},\"timed_out\":"
      << (timed_out ? "true" : "false") << ",\"ok\":"
      << (ok ? "true" : "false") << '}';
  return out.str();
}

#if HETERO_SVC_HAVE_LOADGEN

namespace {

// det-waiver: wall-clock -- a socket client timing a live server; no
// library result depends on what it measures.
using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

// A response must be a protocol envelope: {"id":...,"ok":true/false,...}.
// 0 = ok:true, 1 = ok:false, -1 = malformed.
int classify_response(std::string_view line) {
  if (line.size() < 8 || line.compare(0, 6, "{\"id\":") != 0) return -1;
  if (line.find("\"ok\":true") != std::string_view::npos) return 0;
  if (line.find("\"ok\":false") != std::string_view::npos) return 1;
  return -1;
}

struct Client {
  int fd = -1;
  bool connected = false;
  bool closed = false;
  std::size_t prologue_received = 0;
  std::size_t sent = 0;
  std::size_t received = 0;
  std::size_t in_flight = 0;
  std::string inbuf;
  std::string outbuf;
  std::size_t out_off = 0;
  std::deque<Clock::time_point> send_times;
  bool want_write = false;
};

}  // namespace

LoadGenReport run_load(const std::vector<std::string>& request_lines,
                       const LoadGenOptions& options) {
  LoadGenReport report;
  report.clients = options.clients;
  if (request_lines.empty() || options.clients == 0 ||
      options.requests_per_client == 0)
    return report;

  net::ignore_sigpipe();
  net::raise_nofile_limit();

  const std::size_t pipeline = std::max<std::size_t>(1, options.pipeline);
  const bool open_loop = options.open_loop_rps > 0.0;
  const std::size_t prologue_count = options.prologue_lines.size();
  const std::uint64_t total_target =
      static_cast<std::uint64_t>(options.clients) *
      options.requests_per_client;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    report.connect_failures = options.clients;
    return report;
  }

  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    report.connect_failures = options.clients;
    return report;
  }

  LatencyHistogram latency_hist;
  std::vector<Client> clients(options.clients);
  std::size_t next_to_connect = 0;   // first client not yet connect()ed
  std::size_t pending_connects = 0;  // connect() issued, not yet confirmed
  std::size_t finished = 0;          // clients fully done (closed)
  // Pace connection establishment so a 10k-client run does not dump its
  // whole SYN burst into the listen backlog at once.
  constexpr std::size_t kMaxPendingConnects = 256;

  const auto update_interest = [&](std::size_t idx) {
    Client& c = clients[idx];
    epoll_event ev{};
    ev.data.u64 = idx;
    ev.events = EPOLLIN;
    if (c.want_write || !c.connected) ev.events |= EPOLLOUT;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  };

  const auto close_client = [&](std::size_t idx) {
    Client& c = clients[idx];
    if (c.closed) return;
    if (c.fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
    }
    c.closed = true;
    report.dropped += c.sent - c.received;
    ++finished;
  };

  const auto start_connect = [&](std::size_t idx) -> bool {
    Client& c = clients[idx];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    const int enable = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    const int rc = ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof addr);
    if (rc < 0 && errno != EINPROGRESS) {
      ::close(c.fd);
      c.fd = -1;
      return false;
    }
    c.connected = rc == 0;
    epoll_event ev{};
    ev.data.u64 = idx;
    ev.events = EPOLLIN | (c.connected ? 0u : EPOLLOUT);
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, c.fd, &ev);
    return true;
  };

  // Queues client idx's next request into its write buffer; send time is
  // stamped at queue time, so reported latency includes local write-side
  // buffering (the conservative choice for a benchmark).
  const auto queue_request = [&](std::size_t idx) {
    Client& c = clients[idx];
    const std::string& line =
        request_lines[(idx + c.sent) % request_lines.size()];
    c.outbuf.append(line);
    c.outbuf.push_back('\n');
    c.send_times.push_back(Clock::now());
    ++c.sent;
    ++c.in_flight;
    ++report.sent;
  };

  const auto flush_client = [&](std::size_t idx) -> bool {
    Client& c = clients[idx];
    while (c.out_off < c.outbuf.size()) {
      const auto n = ::send(c.fd, c.outbuf.data() + c.out_off,
                            c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_client(idx);
        return false;
      }
      c.out_off += static_cast<std::size_t>(n);
      report.bytes_out += static_cast<std::uint64_t>(n);
    }
    if (c.out_off == c.outbuf.size()) {
      c.outbuf.clear();
      c.out_off = 0;
    }
    const bool want_write = c.out_off < c.outbuf.size();
    if (want_write != c.want_write) {
      c.want_write = want_write;
      update_interest(idx);
    }
    return true;
  };

  // How a response line advanced its client: still inside the prologue,
  // the response that completed the prologue (measured stream may start),
  // or a measured response.
  enum class LineKind { prologue_pending, prologue_done, measured };

  const auto handle_response_line = [&](std::size_t idx,
                                        std::string_view line) {
    Client& c = clients[idx];
    if (c.prologue_received < prologue_count) {
      // Prologue responses are awaited but never measured: a session
      // subscribe is setup cost, not stream throughput.
      ++c.prologue_received;
      if (classify_response(line) != 0) ++report.prologue_failures;
      return c.prologue_received == prologue_count
                 ? LineKind::prologue_done
                 : LineKind::prologue_pending;
    }
    ++c.received;
    ++report.received;
    if (c.in_flight > 0) --c.in_flight;
    if (!c.send_times.empty()) {
      latency_hist.record(elapsed_us(c.send_times.front(), Clock::now()));
      c.send_times.pop_front();
    }
    switch (classify_response(line)) {
      case 0: ++report.ok_true; break;
      case 1: ++report.ok_false; break;
      default: ++report.malformed; break;
    }
    return LineKind::measured;
  };

  const auto handle_readable = [&](std::size_t idx) {
    Client& c = clients[idx];
    char chunk[65536];
    while (true) {
      const auto n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        close_client(idx);
        return;
      }
      if (n == 0) {
        close_client(idx);
        return;
      }
      report.bytes_in += static_cast<std::uint64_t>(n);
      c.inbuf.append(chunk, static_cast<std::size_t>(n));
      // Split on newlines with a scan offset; the consumed prefix is
      // erased once per read, not once per line.
      std::size_t consumed = 0;
      std::size_t pos;
      while ((pos = c.inbuf.find('\n', consumed)) != std::string::npos) {
        const LineKind kind = handle_response_line(
            idx, std::string_view(c.inbuf).substr(consumed, pos - consumed));
        consumed = pos + 1;
        if (!open_loop) {
          if (kind == LineKind::prologue_done) {
            // The session is established: prime the measured pipeline.
            const std::size_t burst =
                std::min(pipeline, options.requests_per_client);
            for (std::size_t b = 0; b < burst; ++b) queue_request(idx);
            if (!flush_client(idx)) return;
          } else if (kind == LineKind::measured &&
                     c.sent < options.requests_per_client) {
            queue_request(idx);
            if (!flush_client(idx)) return;
          }
        }
      }
      if (consumed > 0) c.inbuf.erase(0, consumed);
      if (c.received == options.requests_per_client) {
        close_client(idx);
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof chunk) return;
    }
  };

  // Priming on connect confirmation: with a prologue, send it (in both
  // loop modes) and hold the measured stream until its responses land;
  // otherwise fill the closed-loop pipeline window immediately.
  const auto prime_client = [&](std::size_t idx) -> bool {
    if (prologue_count > 0) {
      Client& c = clients[idx];
      for (const std::string& line : options.prologue_lines) {
        c.outbuf.append(line);
        c.outbuf.push_back('\n');
      }
      return flush_client(idx);
    }
    if (open_loop) return true;
    const std::size_t burst =
        std::min(pipeline, options.requests_per_client);
    for (std::size_t b = 0; b < burst; ++b) queue_request(idx);
    return flush_client(idx);
  };

  const Clock::time_point start = Clock::now();
  const Clock::time_point hard_deadline = start + options.time_limit;
  std::size_t open_cursor = 0;

  constexpr int kMaxEvents = 512;
  epoll_event events[kMaxEvents];
  while (finished < options.clients) {
    const Clock::time_point now = Clock::now();
    if (now > hard_deadline) {
      report.timed_out = true;
      break;
    }

    // Keep the connect pipeline full.
    while (next_to_connect < options.clients &&
           pending_connects < kMaxPendingConnects) {
      const std::size_t idx = next_to_connect++;
      if (start_connect(idx)) {
        // Loopback connects can complete synchronously; prime right away
        // instead of waiting for an EPOLLOUT that will never come.
        if (clients[idx].connected)
          prime_client(idx);
        else
          ++pending_connects;
      } else {
        ++report.connect_failures;
        clients[idx].closed = true;
        ++finished;
      }
    }

    // Open-loop schedule: issue every send whose scheduled time has
    // passed, rotating across clients that still owe requests. A tick
    // with no eligible client (connects still in flight) is retried, not
    // consumed — the schedule position is the actual send count.
    int timeout_ms = 250;
    if (open_loop) {
      while (report.sent < total_target) {
        const double due_s =
            static_cast<double>(report.sent) / options.open_loop_rps;
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_s));
        if (Clock::now() < due) {
          const auto wait_us = elapsed_us(Clock::now(), due);
          timeout_ms = static_cast<int>(
              std::min<std::uint64_t>(250, wait_us / 1000 + 1));
          break;
        }
        bool issued = false;
        for (std::size_t scan = 0; scan < options.clients; ++scan) {
          const std::size_t idx = (open_cursor + scan) % options.clients;
          Client& c = clients[idx];
          if (c.closed || !c.connected ||
              c.prologue_received < prologue_count ||
              c.sent >= options.requests_per_client)
            continue;
          open_cursor = idx + 1;
          queue_request(idx);
          flush_client(idx);
          issued = true;
          break;
        }
        if (!issued) {
          timeout_ms = 1;  // nobody ready yet; retry shortly
          break;
        }
      }
    }

    const int n = ::epoll_wait(epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(events[i].data.u64);
      Client& c = clients[idx];
      if (c.closed) continue;
      if (!c.connected) {
        --pending_connects;
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0 || (events[i].events & (EPOLLHUP | EPOLLERR))) {
          ++report.connect_failures;
          close_client(idx);
          continue;
        }
        c.connected = true;
        update_interest(idx);
        prime_client(idx);
        continue;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        handle_readable(idx);  // drain anything delivered before the HUP
        if (!clients[idx].closed) close_client(idx);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        if (!flush_client(idx)) continue;
      }
      if (events[i].events & EPOLLIN) handle_readable(idx);
    }
  }

  // Anything still open at exit (time limit) counts its owed responses as
  // dropped via close_client.
  for (std::size_t idx = 0; idx < clients.size(); ++idx)
    if (!clients[idx].closed) close_client(idx);
  ::close(epoll_fd);

  report.latency = latency_hist.snapshot();
  report.elapsed_s =
      static_cast<double>(elapsed_us(start, Clock::now())) / 1e6;
  report.requests_per_s =
      report.elapsed_s > 0.0
          ? static_cast<double>(report.received) / report.elapsed_s
          : 0.0;
  report.ok = report.connect_failures == 0 && report.malformed == 0 &&
              report.dropped == 0 && report.prologue_failures == 0 &&
              !report.timed_out && report.received == total_target;
  return report;
}

#else  // !HETERO_SVC_HAVE_LOADGEN

LoadGenReport run_load(const std::vector<std::string>&,
                       const LoadGenOptions& options) {
  LoadGenReport report;
  report.clients = options.clients;
  report.connect_failures = options.clients;
  return report;
}

#endif

}  // namespace hetero::svc
