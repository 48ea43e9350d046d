#include "comm/session.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "comm/frame.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/logging.h"

namespace vela::comm::session {

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void RecordParser::feed(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

namespace {

// Header length for a record type; 0 for an unknown type.
std::size_t header_bytes_for(std::uint8_t type) {
  switch (type) {
    case kRecData:
      return kSessionDataOverheadBytes;
    case kRecAck:
    case kRecHello:
      return 1 + sizeof(std::uint64_t);
    case kRecGoodbye:
      return 1;
    case kRecIdent:
      return kIdentRecordBytes;
    default:
      return 0;
  }
}

}  // namespace

bool RecordParser::next(Record* out) {
  bool corrupt = false;
  const bool got = next_lenient(out, &corrupt);
  if (corrupt) {
    VELA_CHECK_MSG(false, "session stream corrupted: record type "
                              << static_cast<int>(buffer_[0]));
  }
  return got;
}

bool RecordParser::next_lenient(Record* out, bool* corrupt) {
  *corrupt = false;
  if (buffer_.empty()) return false;
  const std::uint8_t type = buffer_[0];
  const std::size_t header = header_bytes_for(type);
  if (header == 0) {
    *corrupt = true;
    return false;
  }
  if (buffer_.size() < header) return false;
  std::size_t total = header;
  if (type == kRecData) {
    const std::uint32_t len = get_u32(buffer_.data() + 9);
    if (len > kMaxFrameBodyBytes + kFrameOverheadBytes) {
      *corrupt = true;
      return false;
    }
    total += len;
    if (buffer_.size() < total) return false;
  }
  out->type = type;
  out->seq = 0;
  out->ident_valid = false;
  out->frame.clear();
  switch (type) {
    case kRecData:
      out->seq = get_u64(buffer_.data() + 1);
      out->frame.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(header),
                        buffer_.begin() + static_cast<std::ptrdiff_t>(total));
      break;
    case kRecAck:
    case kRecHello:
      out->seq = get_u64(buffer_.data() + 1);
      break;
    case kRecIdent: {
      const std::uint8_t* p = buffer_.data() + 1;
      const std::uint32_t magic = get_u32(p);
      const std::uint32_t version = get_u32(p + 4);
      out->ident.rank = get_u32(p + 8);
      out->ident.lane = p[12];
      out->ident.capacity = get_u64(p + 13);
      out->ident.session_id = get_u64(p + 21);
      out->ident_valid = magic == kIdentMagic && version == kIdentVersion &&
                         (out->ident.lane == kLaneToWorker ||
                          out->ident.lane == kLaneToMaster);
      break;
    }
    case kRecGoodbye:
      break;  // goodbye carries nothing beyond the type byte
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  return true;
}

std::vector<std::uint8_t> encode_data_record(
    std::uint64_t seq, const std::vector<std::uint8_t>& frame) {
  std::vector<std::uint8_t> rec;
  rec.reserve(kSessionDataOverheadBytes + frame.size());
  rec.push_back(kRecData);
  put_u64(&rec, seq);
  put_u32(&rec, static_cast<std::uint32_t>(frame.size()));
  rec.insert(rec.end(), frame.begin(), frame.end());
  return rec;
}

std::vector<std::uint8_t> encode_ctrl_record(std::uint8_t type,
                                             std::uint64_t seq) {
  std::vector<std::uint8_t> rec;
  if (type == kRecGoodbye) {
    rec.push_back(kRecGoodbye);
    return rec;
  }
  rec.reserve(1 + sizeof(std::uint64_t));
  rec.push_back(type);
  put_u64(&rec, seq);
  return rec;
}

std::vector<std::uint8_t> encode_ident_record(const PeerIdentity& id) {
  std::vector<std::uint8_t> rec;
  rec.reserve(kIdentRecordBytes);
  rec.push_back(kRecIdent);
  put_u32(&rec, kIdentMagic);
  put_u32(&rec, kIdentVersion);
  put_u32(&rec, id.rank);
  rec.push_back(id.lane);
  put_u64(&rec, id.capacity);
  put_u64(&rec, id.session_id);
  VELA_CHECK(rec.size() == kIdentRecordBytes);
  return rec;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Poll deadlines are OS-level waits, the injection point itself.
// vela-lint: allow(naked-clock)
bool write_all_timed(int fd, const std::uint8_t* data, std::size_t size,
                     int budget_ms) {
  // vela-lint: allow(naked-clock)
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n =
        ::send(fd, data + off, size - off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
    // vela-lint: allow(naked-clock)
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    if (ms <= 0) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    ::poll(&pfd, 1, static_cast<int>(ms));
  }
  return true;
}

// Handshake reads are real-time bounded (loopback round trip, not protocol
// time). vela-lint: allow(naked-clock)
bool read_record_blocking(int fd, RecordParser* parser, Record* out,
                          int budget_ms, bool lenient) {
  // vela-lint: allow(naked-clock)
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (true) {
    if (lenient) {
      bool corrupt = false;
      if (parser->next_lenient(out, &corrupt)) return true;
      if (corrupt) return false;
    } else {
      if (parser->next(out)) return true;
    }
    // vela-lint: allow(naked-clock)
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    if (ms <= 0) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(ms));
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      return false;
    }
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    parser->feed(buf, static_cast<std::size_t>(n));
  }
}

int make_listen_socket(std::uint16_t port, std::uint16_t* bound_port,
                       int backlog, int bind_attempts,
                       std::chrono::milliseconds retry_delay,
                       util::Clock* clock) {
  util::Clock* clk = clock != nullptr ? clock : &util::system_clock();
  VELA_CHECK_MSG(bind_attempts >= 1, "bind_attempts must be >= 1");
  int last_errno = 0;
  for (int attempt = 1; attempt <= bind_attempts; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    VELA_CHECK_MSG(fd >= 0, "socket(): " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      last_errno = errno;
      ::close(fd);
      // Only a collision is worth retrying — the port may free up. Anything
      // else (EACCES, bad address) will not change on a re-bind.
      VELA_CHECK_MSG(last_errno == EADDRINUSE,
                     "bind(127.0.0.1:" << port
                                       << "): " << std::strerror(last_errno));
      if (attempt < bind_attempts) clk->sleep_for(retry_delay);
      continue;
    }
    VELA_CHECK_MSG(::listen(fd, backlog) == 0,
                   "listen(): " + std::string(std::strerror(errno)));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    VELA_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
               0);
    if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
    return fd;
  }
  VELA_CHECK_MSG(false, "bind(127.0.0.1:"
                            << port << "): port still in use after "
                            << bind_attempts << " attempt(s): "
                            << std::strerror(last_errno));
  return -1;  // unreachable
}

int dial_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// --- Engine ------------------------------------------------------------------

Conn::~Conn() {
  if (tx_fd >= 0) ::close(tx_fd);
  if (rx_fd >= 0) ::close(rx_fd);
}

void Conn::cut() const {
  if (tx_fd >= 0) ::shutdown(tx_fd, SHUT_RDWR);
  if (rx_fd >= 0) ::shutdown(rx_fd, SHUT_RDWR);
}

Engine::Engine(Options options, util::Clock* clock, ReconnectPolicy policy,
               Connector connector)
    : options_(std::move(options)),
      clock_(clock != nullptr ? clock : &util::system_clock()),
      policy_(policy),
      connector_(std::move(connector)),
      jitter_rng_(policy.jitter_seed) {}

Engine::~Engine() = default;

bool Engine::open(bool announce) {
  std::shared_ptr<Conn> first;
  {
    std::lock_guard<std::mutex> st(state_mutex_);
    const int attempt = attempt_loop_locked([&] {
      first = connect_locked();
      return first != nullptr;
    });
    if (attempt == 0) return false;
  }
  open(std::move(first), announce);
  return true;
}

void Engine::open(std::shared_ptr<Conn> first, bool announce) {
  // A hello that fails to leave is harmless: the connection is then dead,
  // and the first receive resumes it with a fresh hello.
  if (announce && options_.receiver) (void)offer_hello(*first);
  publish(first);
}

bool Engine::send(const std::vector<std::uint8_t>& frame) {
  VELA_CHECK_MSG(options_.sender, "send() on a session without a sender half");
  // tx_mutex_ keeps concurrent senders' records intact on the stream (the
  // EP inboxes are many-writer) and orders close() after any in-progress
  // write, so a record is never torn by a graceful shutdown.
  std::lock_guard<std::mutex> tx(tx_mutex_);
  if (closed_.load(std::memory_order_acquire)) return false;

  std::shared_ptr<Conn> conn;
  std::vector<std::uint8_t> record;
  const ConnectionScript::Sever* sever = nullptr;
  {
    std::lock_guard<std::mutex> st(state_mutex_);
    const std::uint64_t seq = next_seq_++;
    record = encode_data_record(seq, frame);
    replay_.emplace_back(seq, frame);
    sever = pending_sever_locked(seq);
    conn = snapshot();
    std::lock_guard<std::mutex> sl(stats_mutex_);
    ++stats_.frames_sent;
  }
  drain_acks(*conn);

  bool wrote = false;
  if (sever != nullptr) {
    // Scripted cut: put exactly byte_offset bytes of the record on the
    // wire, then kill the connection. The frame stays in the replay
    // buffer, so resume must deliver it exactly once.
    const std::size_t cut = std::min(sever->byte_offset, record.size());
    {
      std::lock_guard<std::mutex> wl(conn->write_mutex);
      if (cut > 0) write_all(conn->tx_fd, record.data(), cut);
      ::shutdown(conn->tx_fd, SHUT_RDWR);
    }
    std::lock_guard<std::mutex> sl(stats_mutex_);
    ++stats_.severs_injected;
  } else {
    std::lock_guard<std::mutex> wl(conn->write_mutex);
    wrote = write_all(conn->tx_fd, record.data(), record.size());
  }
  if (wrote) return true;

  // The write failed (or the script cut the stream): resume the session.
  // The resume replays everything unacknowledged — including this frame —
  // so success means the frame is on the wire.
  std::lock_guard<std::mutex> st(state_mutex_);
  return recover_locked(conn);
}

std::optional<std::vector<std::uint8_t>> Engine::receive() {
  std::vector<std::uint8_t> frame;
  if (receive_within(-1, &frame) != PopStatus::kOk) return std::nullopt;
  return frame;
}

std::optional<std::vector<std::uint8_t>> Engine::try_receive() {
  std::vector<std::uint8_t> frame;
  if (receive_within(0, &frame) != PopStatus::kOk) return std::nullopt;
  return frame;
}

PopStatus Engine::receive_for(std::chrono::milliseconds timeout,
                              std::vector<std::uint8_t>* out) {
  const long ms = static_cast<long>(timeout.count());
  return receive_within(ms < 0 ? 0 : ms, out);
}

PopStatus Engine::receive_within(long timeout_ms,
                                 std::vector<std::uint8_t>* out) {
  VELA_CHECK_MSG(options_.receiver,
                 "receive() on a session without a receiver half");
  std::lock_guard<std::mutex> rx(rx_mutex_);
  // The poll deadline below is the OS-level wait budget — the injection
  // point itself; virtual-time conversion happens one layer up
  // (util::Clock::wait_slice in the retry loops).
  // vela-lint: allow(naked-clock)
  const auto deadline =
      timeout_ms < 0
          ? std::chrono::steady_clock::time_point::max()
          // vela-lint: allow(naked-clock)
          : std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (!options_.sender && closed_.load(std::memory_order_acquire) &&
        !goodbye_received_.load(std::memory_order_acquire)) {
      // A lone receiver closed locally reports end-of-stream. (With both
      // halves, close() is the sender's: the receiver drains to goodbye.)
      return PopStatus::kClosed;
    }
    std::shared_ptr<Conn> conn = snapshot();
    Record rec;
    if (conn->rx_parser.next(&rec)) {
      if (rec.type == kRecData) {
        const std::uint64_t expected =
            next_expected_.load(std::memory_order_acquire);
        if (rec.seq == expected) {
          next_expected_.store(expected + 1, std::memory_order_release);
          send_ack(*conn, expected + 1);
          *out = std::move(rec.frame);
          return PopStatus::kOk;
        }
        VELA_CHECK_MSG(rec.seq < expected,
                       "session resume broke ordering: got seq "
                           << rec.seq << ", expected " << expected);
        // A replayed record we already delivered: discard (this is the
        // exactly-once half of the resume contract) and re-ack so the
        // sender prunes its replay buffer.
        {
          std::lock_guard<std::mutex> sl(stats_mutex_);
          ++stats_.duplicates_discarded;
        }
        send_ack(*conn, expected);
        continue;
      }
      VELA_CHECK_MSG(rec.type == kRecGoodbye,
                     "unexpected session record on data direction: "
                         << static_cast<int>(rec.type));
      goodbye_received_.store(true, std::memory_order_release);
      continue;
    }
    // Parser empty: closed-and-drained, or wait for more bytes.
    if (goodbye_received_.load(std::memory_order_acquire)) {
      return PopStatus::kClosed;
    }
    if (dead_.load(std::memory_order_acquire)) return PopStatus::kClosed;
    if (conn->rx_eof) {
      // EOF without a goodbye: the connection was lost, not closed.
      std::unique_lock<std::mutex> st(state_mutex_, std::try_to_lock);
      if (st.owns_lock()) {
        if (!recover_locked(conn)) return PopStatus::kClosed;
      } else {
        // Another thread is already resuming; yield so it can publish the
        // fresh connection (we then drain its replay). Real yield on
        // purpose — this is inter-thread scheduling, not protocol time.
        // vela-lint: allow(naked-clock)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      continue;
    }

    int wait_ms = -1;
    if (timeout_ms >= 0) {
      // vela-lint: allow(naked-clock)
      const auto remaining = deadline - std::chrono::steady_clock::now();
      const auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count();
      if (ms < 0 && timeout_ms != 0) return PopStatus::kTimeout;
      wait_ms = ms < 0 ? 0 : static_cast<int>(ms);
    }
    pollfd pfd{};
    pfd.fd = conn->rx_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      VELA_CHECK_MSG(false, "poll(): " + std::string(std::strerror(errno)));
    }
    if (ready == 0) {
      if (timeout_ms == 0) return PopStatus::kTimeout;
      continue;  // re-check the deadline at the loop top
    }

    std::uint8_t buf[65536];
    const ssize_t n = ::recv(conn->rx_fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET || errno == EPIPE) {
        conn->rx_eof = true;
        continue;
      }
      VELA_CHECK_MSG(false, "recv(): " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      conn->rx_eof = true;
      continue;
    }
    conn->rx_parser.feed(buf, static_cast<std::size_t>(n));
  }
}

void Engine::close() {
  if (!options_.sender) {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    if (const std::shared_ptr<Conn> conn = snapshot()) conn->cut();
    return;
  }
  std::lock_guard<std::mutex> tx(tx_mutex_);
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  const std::shared_ptr<Conn> conn = snapshot();
  if (conn == nullptr) return;
  // Goodbye after the last complete record, then FIN: the receiver drains
  // buffered records, sees the goodbye, and reports closed — the
  // BlockingQueue close-then-drain contract. An EOF *without* goodbye is
  // a connection loss and triggers resume instead.
  const auto bye = encode_ctrl_record(kRecGoodbye, 0);
  std::lock_guard<std::mutex> wl(conn->write_mutex);
  write_all(conn->tx_fd, bye.data(), bye.size());
  ::shutdown(conn->tx_fd, SHUT_WR);
}

void Engine::set_connection_script(const ConnectionScript* script) {
  std::lock_guard<std::mutex> st(state_mutex_);
  script_ = script;
  sever_fired_.assign(script != nullptr ? script->severs.size() : 0, false);
  refused_so_far_ = 0;
}

SessionStats Engine::stats() const {
  std::lock_guard<std::mutex> sl(stats_mutex_);
  return stats_;
}

void Engine::sever() {
  if (const std::shared_ptr<Conn> conn = snapshot()) conn->cut();
}

std::shared_ptr<Conn> Engine::snapshot() const {
  std::lock_guard<std::mutex> lock(conn_ptr_mutex_);
  return conn_;
}

void Engine::publish(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn_ptr_mutex_);
  conn_ = conn;
}

int Engine::attempt_loop_locked(const std::function<bool()>& attempt) {
  for (int k = 1; k <= policy_.max_attempts; ++k) {
    if (k > 1 && options_.backoff) {
      // Attempt k sleeps min(base·mult^(k-2), max) plus a seeded jitter in
      // [0, base], on the injected clock.
      const auto base = policy_.backoff_base.count();
      double delay = static_cast<double>(base);
      for (int i = 2; i < k; ++i) delay *= policy_.backoff_multiplier;
      delay = std::min(delay, static_cast<double>(policy_.backoff_max.count()));
      const auto jitter = static_cast<std::int64_t>(
          jitter_rng_.uniform_index(static_cast<std::uint64_t>(base) + 1));
      clock_->sleep_for(std::chrono::milliseconds(
          static_cast<std::int64_t>(delay) + jitter));
    }
    if (attempt()) return k;
  }
  return 0;
}

std::shared_ptr<Conn> Engine::connect_locked() {
  if (script_ != nullptr) {
    if (refused_so_far_ < script_->refuse_reconnects) {
      ++refused_so_far_;
      std::lock_guard<std::mutex> sl(stats_mutex_);
      ++stats_.refused_connects;
      return nullptr;
    }
    if (script_->accept_delay.count() > 0) {
      clock_->sleep_for(script_->accept_delay);
    }
  }
  return connector_();
}

bool Engine::handshake_locked(const std::shared_ptr<Conn>& old_conn,
                              const std::shared_ptr<Conn>& fresh) {
  if (options_.receiver && !offer_hello(*fresh)) return false;
  if (options_.sender) {
    // Wait for the peer's hello (stale acks may precede it), then prune to
    // its watermark.
    Record rec;
    bool got_hello = false;
    while (read_record_blocking(fresh->tx_fd, &fresh->ack_parser, &rec,
                                kHandshakeBudgetMs)) {
      if (rec.type == kRecHello) {
        got_hello = true;
        break;
      }
      if (rec.type != kRecAck) break;  // protocol violation; retry
    }
    if (!got_hello) return false;
    prune_replay_locked(rec.seq);
  }

  // Publish BEFORE replaying: the receive path (which never blocks on
  // state_mutex_) starts draining the fresh connection immediately, so a
  // replay larger than the socket buffers still makes progress.
  publish(fresh);
  old_conn->cut();
  if (!options_.sender) return true;

  std::lock_guard<std::mutex> wl(fresh->write_mutex);
  for (const auto& [seq, frame] : replay_) {
    const auto record = encode_data_record(seq, frame);
    if (!write_all_timed(fresh->tx_fd, record.data(), record.size(),
                         kReplayBudgetMs)) {
      // The fresh connection wedged mid-replay; cut it and try again — the
      // next hello re-syncs, so nothing is lost or duplicated.
      fresh->cut();
      return false;
    }
    {
      std::lock_guard<std::mutex> sl(stats_mutex_);
      ++stats_.replayed_frames;
      stats_.replayed_bytes += record.size();
    }
    if (audit::enabled()) {
      audit::ConservationLedger::instance().on_session_replay(record.size());
    }
  }
  return true;
}

bool Engine::recover_locked(const std::shared_ptr<Conn>& old_conn) {
  if (dead_.load(std::memory_order_acquire)) return false;
  if (goodbye_received_.load(std::memory_order_acquire) ||
      (closed_.load(std::memory_order_acquire) && snapshot() == old_conn)) {
    // Graceful close in progress — nothing to resume.
    return false;
  }
  if (snapshot() != old_conn) return true;  // another thread resumed

  const int attempt = attempt_loop_locked([&] {
    const std::shared_ptr<Conn> fresh = connect_locked();
    return fresh != nullptr && handshake_locked(old_conn, fresh);
  });
  if (attempt > 0) {
    {
      std::lock_guard<std::mutex> sl(stats_mutex_);
      ++stats_.reconnects;
    }
    VELA_LOG_DEBUG("session") << options_.label << "resumed after " << attempt
                              << " attempt(s), replayed " << replay_.size()
                              << " frame(s)";
    return true;
  }

  // Budget exhausted: the session is dead. The transport reports closed;
  // the layers above turn that into WorkerFailedError → degrade.
  dead_.store(true, std::memory_order_release);
  closed_.store(true, std::memory_order_release);
  old_conn->cut();
  if (const std::shared_ptr<Conn> current = snapshot(); current != old_conn) {
    current->cut();
  }
  VELA_LOG_WARN("session") << options_.label << "reconnect budget exhausted ("
                           << policy_.max_attempts
                           << " attempts); session dead";
  return false;
}

bool Engine::offer_hello(const Conn& conn) const {
  const auto hello = encode_ctrl_record(
      kRecHello, next_expected_.load(std::memory_order_acquire));
  return write_all_timed(conn.rx_fd, hello.data(), hello.size(),
                         kHandshakeBudgetMs);
}

// Opportunistic drain of the reverse path on the send side: cumulative acks
// prune the replay buffer; a hello (a peer's opening or post-resume offer)
// prunes the same way.
void Engine::drain_acks(Conn& conn) {
  while (true) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(conn.tx_fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) break;
    conn.ack_parser.feed(buf, static_cast<std::size_t>(n));
  }
  Record rec;
  while (conn.ack_parser.next(&rec)) {
    VELA_CHECK_MSG(rec.type == kRecAck || rec.type == kRecHello,
                   "unexpected session record on ack direction: "
                       << static_cast<int>(rec.type));
    std::lock_guard<std::mutex> st(state_mutex_);
    prune_replay_locked(rec.seq);
  }
}

// Receiver-side cumulative ack. Best-effort: a lost ack only delays pruning
// (the resume hello is the authoritative sync point).
void Engine::send_ack(const Conn& conn, std::uint64_t next_expected) const {
  const auto ack = encode_ctrl_record(kRecAck, next_expected);
  write_all(conn.rx_fd, ack.data(), ack.size());
}

void Engine::prune_replay_locked(std::uint64_t next_expected) {
  while (!replay_.empty() && replay_.front().first < next_expected) {
    replay_.pop_front();
  }
}

const ConnectionScript::Sever* Engine::pending_sever_locked(
    std::uint64_t seq) {
  if (script_ == nullptr) return nullptr;
  for (std::size_t i = 0; i < script_->severs.size(); ++i) {
    if (!sever_fired_[i] && script_->severs[i].frame_index == seq) {
      sever_fired_[i] = true;
      return &script_->severs[i];
    }
  }
  return nullptr;
}

}  // namespace vela::comm::session
