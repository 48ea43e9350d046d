// Cross-process socket transport of the comm fabric (DESIGN.md §12).
//
// RemoteSocketTransport is the remote-process split of SocketTransport: ONE
// direction of a master↔worker DuplexLink carried over its own TCP
// connection whose two ends live in different OS processes. Each side runs
// one half of the session engine (comm/session.h, DESIGN.md §11):
//
//   * kSender   — owns the sequence counter and the replay buffer, wraps
//     frames in kData session records, drains cumulative acks (and hello
//     prunes) arriving on the reverse path of the same connection, and
//     closes with goodbye-then-FIN;
//   * kReceiver — delivers frames strictly in sequence order, discards
//     replayed duplicates, acks cumulatively, and distinguishes goodbye
//     (graceful close) from bare EOF (connection loss → session resume).
//
// The engine is the one the loopback SocketTransport runs with both halves,
// so everything the equivalence gates pin — exactly-once delivery, replay
// charged to on_session_replay, goodbye semantics — holds across process
// boundaries too. Only the connector differs.
//
// Connection lifecycle: the worker process is always the dialer (it
// connects to the master's PeerListener port and opens with a kIdent
// record; on loss it redials and re-identifies with the same session id).
// The master side adopts connections from the PeerListener and, on loss,
// waits for the peer to re-identify (take_resume). On every connection,
// first or resumed, the receiver then sends exactly one kHello and the
// sender prunes to it and replays — which is what "identity layered under
// the session-resume records" means.
#pragma once

#include <memory>

#include "comm/peer_listener.h"
#include "comm/session.h"
#include "comm/transport.h"

namespace vela::comm {

class RemoteSocketTransport final : public Transport {
 public:
  enum class Role : std::uint8_t { kSender, kReceiver };

  // Dialer side (worker process): connects to 127.0.0.1:`port`, announces
  // `id`, and — in the receiver role — immediately offers its hello. The
  // initial connect is retried on `policy`'s backoff schedule; failure to
  // reach the master at all fails a VELA_CHECK (a worker without a master
  // cannot run).
  [[nodiscard]] static std::unique_ptr<RemoteSocketTransport> dial(
      std::uint16_t port, Role role, const session::PeerIdentity& id,
      util::Clock* clock = nullptr, ReconnectPolicy policy = {});

  // Acceptor side (master process): adopts a connection the `listener`
  // accepted and identified. `listener` is retained (non-owning) as the
  // resume source after a connection loss; it must outlive this transport.
  [[nodiscard]] static std::unique_ptr<RemoteSocketTransport> adopt(
      AcceptedPeer peer, Role role, PeerListener* listener,
      util::Clock* clock = nullptr, ReconnectPolicy policy = {});

  ~RemoteSocketTransport() override;

  RemoteSocketTransport(const RemoteSocketTransport&) = delete;
  RemoteSocketTransport& operator=(const RemoteSocketTransport&) = delete;

  bool send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  std::optional<std::vector<std::uint8_t>> try_receive() override;
  PopStatus receive_for(std::chrono::milliseconds timeout,
                        std::vector<std::uint8_t>* out) override;
  void close() override;
  [[nodiscard]] bool closed() const override;
  [[nodiscard]] const char* name() const override { return "socket"; }

  [[nodiscard]] SessionStats session_stats() const;
  [[nodiscard]] const session::PeerIdentity& identity() const;

  // Cuts the live connection at the socket level (no goodbye), exactly what
  // a killed peer or a yanked cable looks like — the reconnect tests drive
  // the resume path through this.
  void sever_for_testing();

 private:
  RemoteSocketTransport();
  session::PeerIdentity id_;
  std::unique_ptr<session::Engine> engine_;
};

}  // namespace vela::comm
