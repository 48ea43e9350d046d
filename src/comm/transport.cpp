#include "comm/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "comm/session.h"
#include "util/check.h"

namespace vela::comm {

TransportKind resolve_transport(TransportKind kind) {
  if (kind != TransportKind::kDefault) return kind;
  const char* env = std::getenv("VELA_TRANSPORT");
  if (env == nullptr || env[0] == '\0') return TransportKind::kInProc;
  const std::string value(env);
  if (value == "inproc") return TransportKind::kInProc;
  if (value == "socket") return TransportKind::kSocket;
  VELA_CHECK_MSG(false, "VELA_TRANSPORT must be 'inproc' or 'socket', got '" +
                            value + "'");
  return TransportKind::kInProc;  // unreachable
}

TransportKind transport_kind_from_name(const std::string& name) {
  if (name == "inproc") return TransportKind::kInProc;
  if (name == "socket") return TransportKind::kSocket;
  if (name.empty() || name == "default") return TransportKind::kDefault;
  VELA_CHECK_MSG(false, "unknown transport '" + name +
                            "' (expected inproc, socket or default)");
  return TransportKind::kInProc;  // unreachable
}

const char* transport_kind_name(TransportKind kind) {
  switch (resolve_transport(kind)) {
    case TransportKind::kSocket:
      return "socket";
    default:
      return "inproc";
  }
}

// --- InProcTransport --------------------------------------------------------

bool InProcTransport::send(std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(script_mutex_);
    const std::uint64_t index = frames_sent_++;
    if (script_ != nullptr) {
      for (std::size_t i = 0; i < script_->severs.size(); ++i) {
        if (!sever_fired_[i] && script_->severs[i].frame_index == index) {
          // No byte stream to resume on this backend: a scripted sever is a
          // permanent link death, the backend-invariant "worker killed"
          // signal (see header).
          sever_fired_[i] = true;
          queue_.close();
          return false;
        }
      }
    }
  }
  return queue_.push(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> InProcTransport::receive() {
  return queue_.pop();
}

std::optional<std::vector<std::uint8_t>> InProcTransport::try_receive() {
  return queue_.try_pop();
}

PopStatus InProcTransport::receive_for(std::chrono::milliseconds timeout,
                                       std::vector<std::uint8_t>* out) {
  return queue_.pop_for(timeout, out);
}

void InProcTransport::close() { queue_.close(); }

bool InProcTransport::closed() const { return queue_.closed(); }

void InProcTransport::set_connection_script(const ConnectionScript* script) {
  std::lock_guard<std::mutex> lock(script_mutex_);
  script_ = script;
  sever_fired_.assign(script != nullptr ? script->severs.size() : 0, false);
}

// --- SocketTransport ---------------------------------------------------------
//
// Both halves of a session::Engine (DESIGN.md §11) over connections to this
// transport's own retained listener, so a severed connection resumes
// without frame loss: the receiver delivers frames strictly in sequence
// order and discards duplicates, so a replayed record is observed at most
// once above the transport — which is why all byte accounting stays at
// Message::wire_size() and replays only surface in the informational
// session counters.

namespace {

// One loopback connection through the retained listener: dial, then accept.
// The connect completes against the listen backlog, so a single thread runs
// both steps in order. nullptr if either step fails.
std::shared_ptr<session::Conn> connect_loopback(int listener,
                                                std::uint16_t port) {
  const int tx = session::dial_socket(port);
  if (tx < 0) return nullptr;
  const int rx = ::accept(listener, nullptr, nullptr);
  if (rx < 0) {
    ::close(tx);
    return nullptr;
  }
  auto conn = std::make_shared<session::Conn>();
  conn->tx_fd = tx;
  conn->rx_fd = rx;
  return conn;
}

}  // namespace

SocketTransport::SocketTransport(util::Clock* clock, ReconnectPolicy policy) {
  std::uint16_t port = 0;
  listener_ = session::make_listen_socket(
      /*port=*/0, &port, /*backlog=*/1, /*bind_attempts=*/1,
      std::chrono::milliseconds(0), clock);
  session::Engine::Options options;
  options.sender = true;
  options.receiver = true;
  const int listener = listener_;
  engine_ = std::make_unique<session::Engine>(
      options, clock, policy,
      [listener, port] { return connect_loopback(listener, port); });
  VELA_CHECK_MSG(engine_->open(/*announce=*/false),
                 "socket transport: initial connect failed");
}

SocketTransport::~SocketTransport() {
  engine_.reset();  // connection fds first, then the listener
  ::close(listener_);
}

bool SocketTransport::send(std::vector<std::uint8_t> frame) {
  return engine_->send(frame);
}

std::optional<std::vector<std::uint8_t>> SocketTransport::receive() {
  return engine_->receive();
}

std::optional<std::vector<std::uint8_t>> SocketTransport::try_receive() {
  return engine_->try_receive();
}

PopStatus SocketTransport::receive_for(std::chrono::milliseconds timeout,
                                       std::vector<std::uint8_t>* out) {
  return engine_->receive_for(timeout, out);
}

void SocketTransport::close() { engine_->close(); }

bool SocketTransport::closed() const { return engine_->closed(); }

void SocketTransport::set_connection_script(const ConnectionScript* script) {
  engine_->set_connection_script(script);
}

SessionStats SocketTransport::session_stats() const {
  return engine_->stats();
}

std::unique_ptr<Transport> make_transport(TransportKind kind) {
  if (resolve_transport(kind) == TransportKind::kSocket) {
    ReconnectPolicy policy;
    // Retry-budget knob (README): cap reconnect attempts per sever before
    // the session is declared dead.
    if (const char* env = std::getenv("VELA_RECONNECT_ATTEMPTS");
        env != nullptr && env[0] != '\0') {
      const long attempts = std::strtol(env, nullptr, 10);
      VELA_CHECK_MSG(attempts >= 1,
                     "VELA_RECONNECT_ATTEMPTS must be >= 1, got '" +
                         std::string(env) + "'");
      policy.max_attempts = static_cast<int>(attempts);
    }
    return std::make_unique<SocketTransport>(nullptr, policy);
  }
  return std::make_unique<InProcTransport>();
}

}  // namespace vela::comm
