#include "comm/remote_transport.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace vela::comm {

namespace {

using Role = RemoteSocketTransport::Role;

// One end of a remote lane, in the slot of the half it runs. Bytes the
// listener read past the kIdent record (a pipelined hello or early data) go
// to that half's parser first.
std::shared_ptr<session::Conn> wrap_end(
    int fd, Role role, const std::vector<std::uint8_t>& leftover) {
  auto conn = std::make_shared<session::Conn>();
  if (role == Role::kSender) {
    conn->tx_fd = fd;
    conn->ack_parser.feed(leftover.data(), leftover.size());
  } else {
    conn->rx_fd = fd;
    conn->rx_parser.feed(leftover.data(), leftover.size());
  }
  return conn;
}

session::Engine::Options lane_options(Role role,
                                      const session::PeerIdentity& id,
                                      bool backoff) {
  session::Engine::Options options;
  options.sender = role == Role::kSender;
  options.receiver = role == Role::kReceiver;
  options.backoff = backoff;
  options.label = "remote lane rank=" + std::to_string(id.rank) +
                  " lane=" + std::to_string(static_cast<int>(id.lane)) + ": ";
  return options;
}

}  // namespace

RemoteSocketTransport::RemoteSocketTransport() = default;
RemoteSocketTransport::~RemoteSocketTransport() = default;

std::unique_ptr<RemoteSocketTransport> RemoteSocketTransport::dial(
    std::uint16_t port, Role role, const session::PeerIdentity& id,
    util::Clock* clock, ReconnectPolicy policy) {
  auto t = std::unique_ptr<RemoteSocketTransport>(
      new RemoteSocketTransport());  // vela-lint: allow(naked-new) -- private ctor
  t->id_ = id;
  // Every connection — the first and each resume — is a dial plus kIdent;
  // the listener sorts a repeat of the same session id into its resume
  // mailbox.
  auto dial_and_identify = [port, role,
                            id]() -> std::shared_ptr<session::Conn> {
    const int fd = session::dial_socket(port);
    if (fd < 0) return nullptr;
    auto conn = wrap_end(fd, role, {});
    const auto ident = session::encode_ident_record(id);
    if (!session::write_all_timed(fd, ident.data(), ident.size(),
                                  session::kHandshakeBudgetMs)) {
      return nullptr;  // Conn dtor closes fd
    }
    return conn;
  };
  t->engine_ = std::make_unique<session::Engine>(
      lane_options(role, id, /*backoff=*/true), clock, policy,
      std::move(dial_and_identify));
  VELA_CHECK_MSG(t->engine_->open(/*announce=*/true),
                 "remote transport: could not reach master on port "
                     << port << " after " << policy.max_attempts
                     << " attempt(s)");
  return t;
}

std::unique_ptr<RemoteSocketTransport> RemoteSocketTransport::adopt(
    AcceptedPeer peer, Role role, PeerListener* listener, util::Clock* clock,
    ReconnectPolicy policy) {
  VELA_CHECK_MSG(listener != nullptr,
                 "remote transport: acceptor side needs a listener");
  VELA_CHECK_MSG(peer.valid(), "remote transport: adopt of an invalid peer");
  auto t = std::unique_ptr<RemoteSocketTransport>(
      new RemoteSocketTransport());  // vela-lint: allow(naked-new) -- private ctor
  t->id_ = peer.id;
  // A resume is the peer re-identifying through the listener. The
  // per-attempt wait doubles as the backoff (the peer drives the redial
  // schedule).
  const auto wait = std::chrono::milliseconds(
      std::max<std::int64_t>(policy.backoff_max.count(), 50));
  auto take_resume = [listener, role, id = peer.id,
                      wait]() -> std::shared_ptr<session::Conn> {
    AcceptedPeer again =
        listener->take_resume(id.rank, id.lane, id.session_id, wait);
    if (!again.valid()) return nullptr;
    return wrap_end(again.fd, role, again.leftover);
  };
  t->engine_ = std::make_unique<session::Engine>(
      lane_options(role, peer.id, /*backoff=*/false), clock, policy,
      std::move(take_resume));
  t->engine_->open(wrap_end(peer.fd, role, peer.leftover), /*announce=*/true);
  return t;
}

bool RemoteSocketTransport::send(std::vector<std::uint8_t> frame) {
  return engine_->send(frame);
}

std::optional<std::vector<std::uint8_t>> RemoteSocketTransport::receive() {
  return engine_->receive();
}

std::optional<std::vector<std::uint8_t>> RemoteSocketTransport::try_receive() {
  return engine_->try_receive();
}

PopStatus RemoteSocketTransport::receive_for(std::chrono::milliseconds timeout,
                                             std::vector<std::uint8_t>* out) {
  return engine_->receive_for(timeout, out);
}

void RemoteSocketTransport::close() { engine_->close(); }

bool RemoteSocketTransport::closed() const { return engine_->closed(); }

SessionStats RemoteSocketTransport::session_stats() const {
  return engine_->stats();
}

const session::PeerIdentity& RemoteSocketTransport::identity() const {
  return id_;
}

void RemoteSocketTransport::sever_for_testing() { engine_->sever(); }

}  // namespace vela::comm
