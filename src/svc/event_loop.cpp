#include "svc/event_loop.hpp"

#include <ostream>

#include "svc/net_util.hpp"

#if defined(__linux__)
#define HETERO_SVC_HAVE_EPOLL 1
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "io/json.hpp"
#include "svc/session.hpp"
#include "support/lock_ranks.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#endif

namespace hetero::svc {

#if HETERO_SVC_HAVE_EPOLL

namespace {

using Clock = std::chrono::steady_clock;

// epoll_event.data.u64 tags for the two non-connection descriptors;
// connection ids start above them.
constexpr std::uint64_t kTagListener = 0;
constexpr std::uint64_t kTagWakeup = 1;
constexpr std::uint64_t kFirstConnId = 2;

// 8-bytes-at-a-time FNV-style hash for raw request lines. The memo
// verifies candidates with a full byte compare, so this only needs to
// spread well, not be collision-free.
std::uint64_t hash_line(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ull ^ (s.size() * 1099511628211ull);
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, s.data() + i, 8);
    h = (h ^ chunk) * 1099511628211ull;
    h ^= h >> 29;
  }
  for (; i < s.size(); ++i) h = (h ^ static_cast<unsigned char>(s[i])) *
                               1099511628211ull;
  return h;
}

bool is_blank(std::string_view line) noexcept {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

// Entries in each worker's raw-line memo.
constexpr std::size_t kLineMemoEntries = 64;

/// Worker-local exact-match LRU of raw request line -> response. Single
/// threaded (loop thread only), so no locks; eviction is oldest-stamp.
class LineMemo {
 public:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t stamp = 0;
    RequestKind kind = RequestKind::invalid;
    std::string line;
    std::string response;
  };

  const Entry* find(std::uint64_t hash, std::string_view line) noexcept {
    for (auto& e : entries_) {
      if (e.hash == hash && e.line == line) {
        e.stamp = ++clock_;
        return &e;
      }
    }
    return nullptr;
  }

  void put(std::uint64_t hash, std::string line, std::string response,
           RequestKind kind) {
    if (entries_.size() < kLineMemoEntries) {
      entries_.push_back(Entry{hash, ++clock_, kind, std::move(line),
                               std::move(response)});
      return;
    }
    auto oldest = entries_.begin();
    for (auto it = entries_.begin() + 1; it != entries_.end(); ++it)
      if (it->stamp < oldest->stamp) oldest = it;
    *oldest = Entry{hash, ++clock_, kind, std::move(line),
                    std::move(response)};
  }

 private:
  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;
};

int make_listener(std::uint16_t port, std::ostream& log) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    log << "svc: socket() failed: " << net::errno_string(errno) << '\n';
    return -1;
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  // Every worker binds its own listener to the shared port; the kernel
  // hashes incoming connections across them (the shared-accept model).
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &enable, sizeof enable);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    log << "svc: bind() to port " << port
        << " failed: " << net::errno_string(errno) << '\n';
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 1024) < 0) {
    log << "svc: listen() failed: " << net::errno_string(errno) << '\n';
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

/// The one write path of a connection, shared by its loop thread and the
/// pool workers answering its requests: whichever thread made a response
/// writes it. The socket, the spill buffer (bytes the socket has not taken
/// yet, in response order) and the closed flag sit under one mutex. Only
/// the loop ever closes the fd, and it sets `closed` under the mutex
/// first, so a late pool write is dropped instead of reaching a reused fd.
class ConnWriter {
 public:
  enum class Result {
    sent,     // the whole line is in the socket
    spilled,  // bytes are waiting in the spill buffer
    close,    // closed, over the close limit, or the socket failed
  };

  ConnWriter(int fd, std::size_t close_limit,
             Metrics::ConnectionGauges& gauges)
      : fd_(fd), close_limit_(close_limit), gauges_(gauges) {}

  /// Writes one response line plus its newline. With nothing spilled that
  /// is one sendmsg straight from `line`, and only the tail the socket
  /// does not take is copied; otherwise the line queues behind the spill.
  Result deliver(std::string_view line) {
    const support::MutexLock lock(mutex_);
    if (closed_) return Result::close;
    if (spill_off_ == spill_.size()) {
      char nl = '\n';
      std::size_t off = 0;  // across line + the trailing newline
      const std::size_t total = line.size() + 1;
      while (off < total) {
        iovec iov[2];
        int iov_count = 0;
        if (off < line.size()) {
          iov[iov_count].iov_base = const_cast<char*>(line.data()) + off;
          iov[iov_count].iov_len = line.size() - off;
          ++iov_count;
        }
        iov[iov_count].iov_base = &nl;
        iov[iov_count].iov_len = 1;
        ++iov_count;
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(iov_count);
        const auto n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return fail();
        }
        off += static_cast<std::size_t>(n);
        gauges_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                    std::memory_order_relaxed);
      }
      touch();
      if (off == total) return Result::sent;
      spill_.clear();
      spill_off_ = 0;
      if (off < line.size()) spill_.assign(line.substr(off));
      spill_.push_back('\n');
      return Result::spilled;
    }
    spill_.reserve(spill_.size() + line.size() + 1);
    spill_.append(line);
    spill_.push_back('\n');
    if (spill_.size() - spill_off_ > close_limit_) {
      gauges_.backpressure_closed.fetch_add(1, std::memory_order_relaxed);
      closed_ = true;
      return Result::close;
    }
    return drain_spill();
  }

  /// Sends as much of the spill as the socket takes (the EPOLLOUT step).
  Result flush() {
    const support::MutexLock lock(mutex_);
    if (closed_) return Result::close;
    return drain_spill();
  }

  /// Bytes owed to the peer.
  std::size_t pending() const {
    const support::MutexLock lock(mutex_);
    return spill_.size() - spill_off_;
  }

  /// Stops every later write; the caller then closes the fd.
  void close() {
    const support::MutexLock lock(mutex_);
    closed_ = true;
    spill_.clear();
    spill_off_ = 0;
  }

  /// When the socket last took bytes.
  Clock::time_point last_write() const noexcept {
    return Clock::time_point(
        Clock::duration(last_write_.load(std::memory_order_relaxed)));
  }

 private:
  Result fail() HETERO_REQUIRES(mutex_) {
    closed_ = true;
    return Result::close;
  }

  void touch() noexcept {
    last_write_.store(Clock::now().time_since_epoch().count(),
                      std::memory_order_relaxed);
  }

  Result drain_spill() HETERO_REQUIRES(mutex_) {
    bool progressed = false;
    while (spill_off_ < spill_.size()) {
      const auto n = ::send(fd_, spill_.data() + spill_off_,
                            spill_.size() - spill_off_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return fail();
      }
      spill_off_ += static_cast<std::size_t>(n);
      gauges_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
      progressed = true;
    }
    if (progressed) touch();
    if (spill_off_ == spill_.size()) {
      spill_.clear();
      spill_off_ = 0;
      return Result::sent;
    }
    if (spill_off_ > (1u << 20) && spill_off_ >= spill_.size() / 2) {
      spill_.erase(0, spill_off_);
      spill_off_ = 0;
    }
    return Result::spilled;
  }

  mutable support::Mutex mutex_{support::kRankConnWriter, "conn-writer"};
  const int fd_;
  const std::size_t close_limit_;
  Metrics::ConnectionGauges& gauges_;
  std::string spill_ HETERO_GUARDED_BY(mutex_);
  std::size_t spill_off_ HETERO_GUARDED_BY(mutex_) = 0;
  bool closed_ HETERO_GUARDED_BY(mutex_) = false;
  std::atomic<Clock::rep> last_write_{0};
};

/// What a pool worker tells the loop after writing a response itself:
/// operation `op` of connection `conn_id` is done, and how its write went.
struct Notice {
  std::uint64_t conn_id = 0;
  std::uint64_t op = 0;
  ConnWriter::Result result = ConnWriter::Result::sent;
};

// Notice channel from pool workers back to the owning loop thread.
// Response callbacks hold it by shared_ptr, so a notice arriving after the
// loop exited (or after its connection died) still has a live queue to
// land in — it is simply never read.
struct WorkerChannel {
  support::Mutex mutex{support::kRankWorkerChannel, "worker-channel"};
  std::vector<Notice> notices HETERO_GUARDED_BY(mutex);
  int wake_fd = -1;

  ~WorkerChannel() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void post(const Notice& notice) {
    {
      const support::MutexLock lock(mutex);
      notices.push_back(notice);
    }
    wake();
  }

  /// Swaps out everything posted so far (the loop thread's drain step).
  std::vector<Notice> take() {
    std::vector<Notice> batch;
    const support::MutexLock lock(mutex);
    batch.swap(notices);
    return batch;
  }

  void wake() noexcept {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd, &one, sizeof one);
  }
};

struct EventLoopServer::Worker {
  std::size_t index = 0;
  int epoll_fd = -1;
  int listen_fd = -1;
  std::shared_ptr<WorkerChannel> channel;
  LineMemo memo;

  struct Conn {
    int fd = -1;
    io::LineFramer framer;
    std::shared_ptr<ConnWriter> writer;
    std::size_t in_flight = 0;  // pool operations not yet noticed
    std::uint64_t next_op = 0;  // numbers this connection's pool operations
    // The pool operation that is a session op, while one is in flight;
    // no further frame is decoded, and no further byte read, until its
    // notice arrives.
    std::optional<std::uint64_t> session_op;
    std::uint32_t interest = EPOLLIN;  // the events registered with epoll
    bool reading_paused = false;
    bool peer_closed = false;  // recv saw EOF; flush what is owed, then close
    bool want_write = false;   // EPOLLOUT armed
    Clock::time_point last_read{};
    // Per-connection streaming session (subscribe/update state). Created
    // at accept: the empty session is a mutex plus two empty optionals,
    // and update/subscribe frames need it before the line is parsed.
    // Shared with the pool job running a session op, which keeps it alive
    // past a close.
    std::shared_ptr<StreamSession> session;
  };
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = kFirstConnId;
  std::size_t in_flight_total = 0;
  bool draining = false;  // graceful shutdown in progress
  Clock::time_point drain_deadline{};
  Clock::time_point last_sweep{};

  ~Worker() {
    for (auto& [id, conn] : conns) {
      conn.writer->close();
      ::close(conn.fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

EventLoopServer::EventLoopServer(Server& server, EventLoopOptions options)
    : server_(server),
      options_(options),
      shard_map_(server.cache().shard_count(),
                 options.workers == 0 ? 1 : options.workers) {
  if (options_.workers == 0) options_.workers = 1;
}

EventLoopServer::~EventLoopServer() {
  request_shutdown();
  wait();
}

bool EventLoopServer::start(std::ostream& log) {
  if (started_) return false;
  net::ignore_sigpipe();
  net::raise_nofile_limit();

  for (std::size_t w = 0; w < options_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = w;
    // Worker 0 may bind an ephemeral port; the rest join it via REUSEPORT.
    worker->listen_fd = make_listener(
        w == 0 ? options_.port : bound_port_, log);
    if (worker->listen_fd < 0) {
      workers_.clear();
      return false;
    }
    if (w == 0) {
      sockaddr_in addr{};
      socklen_t len = sizeof addr;
      if (::getsockname(worker->listen_fd,
                        reinterpret_cast<sockaddr*>(&addr), &len) == 0)
        bound_port_ = ntohs(addr.sin_port);
      else
        bound_port_ = options_.port;
    }
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->channel = std::make_shared<WorkerChannel>();
    worker->channel->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->epoll_fd < 0 || worker->channel->wake_fd < 0) {
      log << "svc: epoll/eventfd setup failed: " << net::errno_string(errno)
          << '\n';
      workers_.clear();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListener;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->listen_fd, &ev);
    ev.data.u64 = kTagWakeup;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->channel->wake_fd,
                &ev);
    workers_.push_back(std::move(worker));
  }

  log << "svc: listening on port " << bound_port_ << " ("
      << options_.workers << (options_.workers == 1 ? " worker)" : " workers)")
      << '\n';
  threads_.reserve(workers_.size());
  for (auto& worker : workers_)
    threads_.emplace_back([this, w = worker.get()] { loop(*w); });
  started_ = true;
  return true;
}

void EventLoopServer::wait() {
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

int EventLoopServer::run(std::ostream& log) {
  if (!start(log)) return 1;
  wait();
  return 0;
}

void EventLoopServer::request_shutdown() noexcept {
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_)
    if (worker->channel && worker->channel->wake_fd >= 0)
      worker->channel->wake();
}

void EventLoopServer::loop(Worker& w) {
  auto& gauges = server_.metrics().connections();
  const auto update_interest = [&](std::uint64_t id, Worker::Conn& conn) {
    epoll_event ev{};
    ev.data.u64 = id;
    ev.events = 0;
    if (!conn.reading_paused && !conn.peer_closed && !conn.session_op &&
        !w.draining)
      ev.events |= EPOLLIN;
    if (conn.want_write) ev.events |= EPOLLOUT;
    if (ev.events == conn.interest) return;
    conn.interest = ev.events;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  const auto close_conn = [&](std::uint64_t id) {
    const auto it = w.conns.find(id);
    if (it == w.conns.end()) return;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
    it->second.writer->close();  // before the fd number can be reused
    ::close(it->second.fd);
    w.conns.erase(it);
    gauges.active.fetch_sub(1, std::memory_order_relaxed);
  };

  // Matches the epoll interest to what the connection owes: EPOLLOUT while
  // bytes are spilled, reads paused above the high-water mark (resumed at
  // half of it). Closes a half-closed peer once nothing is owed. Returns
  // false when the connection was closed.
  const auto settle = [&](std::uint64_t id, Worker::Conn& conn) -> bool {
    const std::size_t pending = conn.writer->pending();
    const bool want_write = pending > 0;
    const bool should_pause =
        !conn.reading_paused && pending > options_.write_high_water;
    const bool should_resume =
        conn.reading_paused && pending <= options_.write_high_water / 2;
    if (want_write != conn.want_write || should_pause || should_resume) {
      conn.want_write = want_write;
      if (should_pause) conn.reading_paused = true;
      if (should_resume) conn.reading_paused = false;
      update_interest(id, conn);
    }
    if (conn.peer_closed && pending == 0 && conn.in_flight == 0) {
      close_conn(id);
      return false;
    }
    return true;
  };

  // Writes one response produced on the loop thread. Returns false when
  // the connection died and was closed.
  const auto deliver = [&](std::uint64_t id, Worker::Conn& conn,
                           std::string_view response) -> bool {
    switch (conn.writer->deliver(response)) {
      case ConnWriter::Result::sent: return true;
      case ConnWriter::Result::spilled: return settle(id, conn);
      case ConnWriter::Result::close: break;
    }
    close_conn(id);
    return false;
  };

  // Decodes and dispatches every complete frame buffered on `conn`, up to
  // (and including) a session op sent to the pool.
  const auto process_frames = [&](std::uint64_t id,
                                  Worker::Conn& conn) -> bool {
    while (!conn.session_op) {
      auto frame = conn.framer.next();
      if (!frame) break;
      if (w.draining) {
        // Shutdown hit between decode and dispatch: answer explicitly
        // instead of dropping a frame the peer already transmitted.
        if (!is_blank(frame->line) &&
            !deliver(id, conn,
                     error_response("null", kErrUnavailable,
                                    "service shutting down")))
          return false;
        continue;
      }
      if (frame->oversized) {
        gauges.oversized_frames.fetch_add(1, std::memory_order_relaxed);
        if (!deliver(id, conn,
                     error_response(
                         "null", kErrBadRequest,
                         "frame exceeds " +
                             std::to_string(options_.max_frame_bytes) +
                             " bytes")))
          return false;
        continue;
      }
      if (is_blank(frame->line)) continue;

      const std::uint64_t line_hash = hash_line(frame->line);
      if (const auto* memo = w.memo.find(line_hash, frame->line)) {
        // Byte-identical replay of a previous inline warm hit; account it
        // exactly like the cache hit it memoized.
        auto& k = server_.metrics().kind(memo->kind);
        k.received.fetch_add(1, std::memory_order_relaxed);
        k.cache_hits.fetch_add(1, std::memory_order_relaxed);
        k.queue_wait.record(0);
        k.compute.record(0);
        k.completed.fetch_add(1, std::memory_order_relaxed);
        if (!deliver(id, conn, memo->response)) return false;
        continue;
      }

      // A pool job writes its response itself, then leaves a notice.
      const std::uint64_t op = conn.next_op++;
      Server::SubmitInfo info;
      auto response = server_.submit(
          frame->line,
          [writer = conn.writer, channel = w.channel, id,
           op](std::string r) {
            channel->post(Notice{id, op, writer->deliver(r)});
          },
          &shard_map_, w.index, &info, conn.session);
      if (response) {
        if (info.memoizable)
          w.memo.put(line_hash, std::move(frame->line), *response, info.kind);
        if (!deliver(id, conn, *response)) return false;
      } else {
        ++conn.in_flight;
        ++w.in_flight_total;
        if (info.session_op) conn.session_op = op;
      }
    }
    return true;
  };

  // Reads stop while a session op is in flight: the bytes stay in the
  // socket, whose receive window then holds the peer back, instead of
  // piling up undecoded in the framer. EPOLLIN is dropped lazily, on the
  // first readiness that arrives during the op, so a peer that waits for
  // each answer costs no extra epoll_ctl.
  const auto handle_readable = [&](std::uint64_t id, Worker::Conn& conn) {
    if (conn.session_op) {
      update_interest(id, conn);
      return;
    }
    char chunk[65536];
    std::size_t budget = 4;  // reads per readiness; LT epoll re-notifies
    while (budget-- > 0) {
      const auto n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(id);
        return;
      }
      if (n == 0) {
        conn.peer_closed = true;
        if (conn.in_flight == 0 && conn.writer->pending() == 0)
          close_conn(id);
        else
          update_interest(id, conn);  // stop reading; flush what is owed
        return;
      }
      gauges.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      conn.last_read = Clock::now();
      conn.framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
      if (!process_frames(id, conn)) return;
      if (conn.session_op) break;
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
    }
  };

  const auto handle_accept = [&] {
    while (true) {
      const int fd = ::accept4(w.listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN, or transient EMFILE/ENFILE: retry on next wake
      }
      const int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
      if (options_.send_buffer_bytes != 0) {
        const int sndbuf = static_cast<int>(options_.send_buffer_bytes);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
      }
      const std::uint64_t id = w.next_conn_id++;
      Worker::Conn& conn = w.conns[id];
      conn.fd = fd;
      conn.framer = io::LineFramer(options_.max_frame_bytes);
      conn.writer = std::make_shared<ConnWriter>(
          fd, options_.write_close_limit, gauges);
      conn.session = std::make_shared<StreamSession>();
      conn.last_read = Clock::now();
      epoll_event ev{};
      ev.events = conn.interest;
      ev.data.u64 = id;
      ::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      gauges.accepted.fetch_add(1, std::memory_order_relaxed);
      gauges.active.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto drain_notices = [&] {
    for (const Notice& notice : w.channel->take()) {
      --w.in_flight_total;
      const auto it = w.conns.find(notice.conn_id);
      if (it == w.conns.end()) continue;  // connection died meanwhile
      Worker::Conn& conn = it->second;
      --conn.in_flight;
      if (notice.result == ConnWriter::Result::close) {
        close_conn(notice.conn_id);
        continue;
      }
      if (conn.session_op == notice.op) {
        // The session op is answered: decode the frames that waited, then
        // read again unless another session op is in flight.
        conn.session_op.reset();
        if (!process_frames(notice.conn_id, conn)) continue;
        update_interest(notice.conn_id, conn);
      }
      // Spilled bytes need EPOLLOUT (and maybe the read pause); a
      // half-closed peer is closed once nothing is owed.
      if (notice.result == ConnWriter::Result::spilled || conn.peer_closed)
        settle(notice.conn_id, conn);
    }
  };

  const auto sweep_idle = [&](Clock::time_point now) {
    if (options_.idle_timeout.count() <= 0) return;
    if (now - w.last_sweep < options_.idle_timeout / 4) return;
    w.last_sweep = now;
    std::vector<std::uint64_t> victims;
    for (auto& [id, conn] : w.conns) {
      if (conn.in_flight > 0) continue;  // compute in progress, not idle
      const Clock::time_point last_activity =
          std::max(conn.last_read, conn.writer->last_write());
      if (now - last_activity > options_.idle_timeout) victims.push_back(id);
    }
    for (const std::uint64_t id : victims) {
      gauges.timed_out.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
  };

  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  while (true) {
    if (stop_.load(std::memory_order_acquire) && !w.draining) {
      // Begin graceful drain: no new connections, no new requests; every
      // admitted request still gets its response flushed.
      w.draining = true;
      w.drain_deadline = Clock::now() + options_.drain_grace;
      ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, w.listen_fd, nullptr);
      for (auto& [id, conn] : w.conns) update_interest(id, conn);
    }
    if (w.draining) {
      bool flushed = w.in_flight_total == 0;
      if (flushed)
        for (auto& [id, conn] : w.conns)
          if (conn.writer->pending() != 0) {
            flushed = false;
            break;
          }
      if (flushed || Clock::now() > w.drain_deadline) break;
    }

    const int timeout_ms = w.draining ? 50 : 250;
    const int n = ::epoll_wait(w.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kTagListener) {
        if (!w.draining) handle_accept();
        continue;
      }
      if (tag == kTagWakeup) {
        std::uint64_t drained;
        while (::read(w.channel->wake_fd, &drained, sizeof drained) > 0) {
        }
        drain_notices();
        continue;
      }
      const auto it = w.conns.find(tag);
      if (it == w.conns.end()) continue;  // closed earlier this batch
      Worker::Conn& conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Give owed responses one last flush attempt, then drop.
        conn.writer->flush();
        close_conn(tag);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        if (conn.writer->flush() == ConnWriter::Result::close) {
          close_conn(tag);
          continue;
        }
        if (!settle(tag, conn)) continue;
      }
      if (events[i].events & EPOLLIN) handle_readable(tag, conn);
    }
    drain_notices();
    sweep_idle(Clock::now());
  }

  // Loop exit: close whatever remains (drain completed or grace expired).
  std::vector<std::uint64_t> remaining;
  remaining.reserve(w.conns.size());
  for (auto& [id, conn] : w.conns) remaining.push_back(id);
  for (const std::uint64_t id : remaining) close_conn(id);
}

#else  // !HETERO_SVC_HAVE_EPOLL

struct EventLoopServer::Worker {};

EventLoopServer::EventLoopServer(Server& server, EventLoopOptions options)
    : server_(server),
      options_(options),
      shard_map_(server.cache().shard_count(),
                 options.workers == 0 ? 1 : options.workers) {}

EventLoopServer::~EventLoopServer() = default;

bool EventLoopServer::start(std::ostream& log) {
  log << "svc: epoll event loop is not supported on this platform\n";
  return false;
}

void EventLoopServer::wait() {}

int EventLoopServer::run(std::ostream& log) {
  start(log);
  return 1;
}

void EventLoopServer::request_shutdown() noexcept {}

#endif

}  // namespace hetero::svc
