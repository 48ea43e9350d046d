// Session layer of the socket fabric (DESIGN.md §11, §12): the record
// codec, the socket plumbing, and the one session-resume engine that both
// socket backends run.
//
// Every byte on a socket-backed lane travels inside a session record. The
// loopback SocketTransport and the multi-process RemoteSocketTransport speak
// the SAME stream layout (little-endian):
//
//   kData    := u8 1 | u64 seq | u32 frame_len | frame[frame_len]
//   kAck     := u8 2 | u64 next_expected_seq      (reverse direction)
//   kHello   := u8 3 | u64 next_expected_seq      (resume handshake)
//   kGoodbye := u8 4                              (graceful close)
//   kIdent   := u8 5 | u32 magic | u32 version | u32 rank | u8 lane |
//               u64 capacity | u64 session_id     (peer discovery, §12)
//
// kIdent is the multi-process peer-discovery handshake: the dialing worker
// announces who it is (rank, lane, hosted-expert capacity) and which
// transport session it belongs to, layered UNDER the kHello resume records —
// a reconnecting peer re-identifies with the same session id, then the
// ordinary hello/ack resume takes over.
//
// The protocol itself — sequence numbers, replay buffer, cumulative acks,
// the kHello resume handshake and the bounded reconnect backoff — exists
// once, in session::Engine below. A backend is an Engine running one or
// both halves plus a Connector that yields fresh connections: the loopback
// pair dials its own retained listener, a remote lane redials and
// re-identifies (worker) or takes the peer's re-identified connection from
// the PeerListener (master).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "util/clock.h"
#include "util/rng.h"

namespace vela::comm::session {

enum : std::uint8_t {
  kRecData = 1,
  kRecAck = 2,
  kRecHello = 3,
  kRecGoodbye = 4,
  kRecIdent = 5,
};

// "VELA" little-endian; a dialer that opens with anything else is not a
// vela_node and is rejected by the listener without crashing it.
inline constexpr std::uint32_t kIdentMagic = 0x414C4556u;
inline constexpr std::uint32_t kIdentVersion = 1;
// u8 type + u32 magic + u32 version + u32 rank + u8 lane + u64 capacity +
// u64 session_id.
inline constexpr std::size_t kIdentRecordBytes = 30;

// The two lanes of a master↔worker DuplexLink, as announced in kIdent.
enum : std::uint8_t {
  kLaneToWorker = 0,  // master → worker data; the dialing worker receives
  kLaneToMaster = 1,  // worker → master data; the dialing worker sends
};

// Worker identity carried by a kIdent record.
struct PeerIdentity {
  std::uint32_t rank = 0;
  std::uint8_t lane = kLaneToWorker;
  std::uint64_t capacity = 0;    // experts the worker hosts at start
  std::uint64_t session_id = 0;  // stable across reconnects of one process
};

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v);
[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p);
[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* p);

struct Record {
  std::uint8_t type = 0;
  std::uint64_t seq = 0;            // kData/kAck/kHello
  PeerIdentity ident;               // kIdent only
  bool ident_valid = false;         // magic+version checked out
  std::vector<std::uint8_t> frame;  // kData only
};

// Incremental session-record segmenter: the session-envelope counterpart of
// FrameDecoder (socket reads never align with record boundaries). An unknown
// record type or an oversize frame length fails a VELA_CHECK — a
// desynchronized stream cannot be resynchronized. Feed from listener-side
// handshakes instead goes through next_lenient(), which reports corruption
// as a rejection rather than aborting the process.
class RecordParser {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  [[nodiscard]] bool next(Record* out);
  // Like next(), but a malformed stream sets *corrupt and returns false
  // instead of failing a check (the listener rejects the peer and lives on).
  [[nodiscard]] bool next_lenient(Record* out, bool* corrupt);
  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }
  // Moves out any bytes buffered past the last extracted record (a
  // handshake reader hands them to the adopting transport's parser).
  [[nodiscard]] std::vector<std::uint8_t> take_buffered() {
    return std::move(buffer_);
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

[[nodiscard]] std::vector<std::uint8_t> encode_data_record(
    std::uint64_t seq, const std::vector<std::uint8_t>& frame);
[[nodiscard]] std::vector<std::uint8_t> encode_ctrl_record(std::uint8_t type,
                                                           std::uint64_t seq);
[[nodiscard]] std::vector<std::uint8_t> encode_ident_record(
    const PeerIdentity& id);

// --- socket plumbing shared by the loopback and remote backends -------------

// Real-time bounds on a loopback round trip during a handshake (kIdent,
// kHello) and on replaying the unacked tail — not protocol time.
inline constexpr int kHandshakeBudgetMs = 2000;
inline constexpr int kReplayBudgetMs = 5000;

// Blocking write with EINTR retry; false on a dead peer.
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

// Non-blocking write with a real-time budget: used where the only drainer
// may itself be momentarily stalled (reconnect replay), so a wedged peer
// fails the attempt instead of deadlocking.
bool write_all_timed(int fd, const std::uint8_t* data, std::size_t size,
                     int budget_ms);

// Blocking read of one record with a real-time deadline (handshakes). False
// on EOF, timeout or — in lenient mode — a malformed stream.
bool read_record_blocking(int fd, RecordParser* parser, Record* out,
                          int budget_ms, bool lenient = false);

// Creates a listening TCP socket on 127.0.0.1:`port` with SO_REUSEADDR set.
// `port` 0 binds an ephemeral port; the actually-bound port is written to
// *bound_port either way (reported back to the launcher). A bind collision
// (EADDRINUSE) is retried up to `bind_attempts` times with `retry_delay`
// slept on `clock` between attempts — bounded, on the injected clock, so
// collision behavior is testable in virtual time. Returns the listener fd;
// fails a VELA_CHECK once the attempt budget is exhausted.
int make_listen_socket(std::uint16_t port, std::uint16_t* bound_port,
                       int backlog, int bind_attempts,
                       std::chrono::milliseconds retry_delay,
                       util::Clock* clock);

// Connects to 127.0.0.1:`port` with TCP_NODELAY. Returns -1 on failure.
int dial_socket(std::uint16_t port);

// --- the session-resume engine -----------------------------------------------

// One connection of a session as seen from this process. The loopback pair
// owns both ends (data leaves on tx_fd and arrives on rx_fd; acks and
// hellos travel the reverse way); a remote lane owns one end, in the slot
// of the half it runs.
struct Conn {
  int tx_fd = -1;  // sender half: writes data, reads acks/hellos
  int rx_fd = -1;  // receiver half: reads data, writes acks/hellos
  std::mutex write_mutex;   // serializes writers to tx_fd (data/replay/bye)
  RecordParser rx_parser;   // guarded by Engine::rx_mutex_
  RecordParser ack_parser;  // guarded by Engine::tx_mutex_, or by
                            // Engine::state_mutex_ before publication
  bool rx_eof = false;      // guarded by Engine::rx_mutex_

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  // shutdown(SHUT_RDWR) on every owned fd: the peer sees a bare EOF (a
  // connection loss, not a goodbye) and local pollers wake.
  void cut() const;
};

// Yields one fresh connection per call, nullptr if this attempt failed.
using Connector = std::function<std::shared_ptr<Conn>()>;

// The session protocol (DESIGN.md §11) over connections from a Connector:
//
//   * sender half   — sequence counter, replay buffer pruned by cumulative
//     acks and resume hellos, replay onto a fresh connection, goodbye-then-
//     FIN on close;
//   * receiver half — in-order delivery, duplicate discard with a re-ack,
//     goodbye (graceful close) told apart from a bare EOF (connection loss
//     → resume);
//   * one bounded-backoff attempt loop over ReconnectPolicy, used for the
//     first connection and for every resume.
//
// On a resume the receiver half offers kHello(next expected) on the fresh
// connection and the sender half waits for the peer's hello, prunes to it
// and replays the rest. An engine running both halves (the loopback pair)
// completes the whole handshake on the calling thread. Once the attempt
// budget is spent the session is dead and reports closed.
//
// Lock order (never reversed): tx_mutex_/rx_mutex_ → state_mutex_ →
// conn_ptr_mutex_/Conn::write_mutex → stats_mutex_.
class Engine {
 public:
  struct Options {
    bool sender = false;    // runs the sender half
    bool receiver = false;  // runs the receiver half
    // Sleep the policy's backoff before attempts after the first. Off for
    // a connector that itself waits for the peer — that wait is the pacing.
    bool backoff = true;
    std::string label;      // log prefix naming the lane
  };

  // `clock` drives backoff and accept-delay sleeps (nullptr: the system
  // clock).
  Engine(Options options, util::Clock* clock, ReconnectPolicy policy,
         Connector connector);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Establishes the first connection through the attempt loop; false once
  // the budget is spent. With `announce`, the receiver half opens the
  // connection with kHello (the remote lanes do; the loopback pair shares
  // one watermark and skips it).
  [[nodiscard]] bool open(bool announce);
  // Same, with a first connection established elsewhere (an adopted peer).
  void open(std::shared_ptr<Conn> first, bool announce);

  // The Transport surface (see transport.h for the contracts).
  bool send(const std::vector<std::uint8_t>& frame);
  std::optional<std::vector<std::uint8_t>> receive();
  std::optional<std::vector<std::uint8_t>> try_receive();
  PopStatus receive_for(std::chrono::milliseconds timeout,
                        std::vector<std::uint8_t>* out);
  void close();
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  void set_connection_script(const ConnectionScript* script);
  [[nodiscard]] SessionStats stats() const;

  // Cuts the live connection at the socket level (no goodbye).
  void sever();

 private:
  // `timeout_ms` < 0 blocks indefinitely, 0 polls.
  PopStatus receive_within(long timeout_ms, std::vector<std::uint8_t>* out);

  std::shared_ptr<Conn> snapshot() const;
  void publish(const std::shared_ptr<Conn>& conn);

  // Runs `attempt` up to policy.max_attempts times, sleeping the backoff
  // before each retry; returns the 1-based attempt that succeeded, 0 once
  // the budget is spent. Caller holds state_mutex_.
  int attempt_loop_locked(const std::function<bool()>& attempt);
  // One connector call, after any scripted refusal or accept stall.
  // Caller holds state_mutex_.
  std::shared_ptr<Conn> connect_locked();
  // The kHello handshake and replay on `fresh`, which replaces `old_conn`.
  // Caller holds state_mutex_.
  bool handshake_locked(const std::shared_ptr<Conn>& old_conn,
                        const std::shared_ptr<Conn>& fresh);
  // Session resume after `old_conn` was lost. Caller holds state_mutex_.
  bool recover_locked(const std::shared_ptr<Conn>& old_conn);

  bool offer_hello(const Conn& conn) const;
  void drain_acks(Conn& conn);
  void send_ack(const Conn& conn, std::uint64_t next_expected) const;
  void prune_replay_locked(std::uint64_t next_expected);
  const ConnectionScript::Sever* pending_sever_locked(std::uint64_t seq);

  const Options options_;
  util::Clock* clock_;
  const ReconnectPolicy policy_;
  const Connector connector_;

  std::mutex tx_mutex_;  // serializes send()/close() callers
  std::mutex rx_mutex_;  // serializes receive callers

  std::mutex state_mutex_;
  std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> replay_;
  std::uint64_t next_seq_ = 0;                // guarded by state_mutex_
  Rng jitter_rng_;                            // guarded by state_mutex_
  const ConnectionScript* script_ = nullptr;  // guarded by state_mutex_
  std::vector<bool> sever_fired_;             // guarded by state_mutex_
  int refused_so_far_ = 0;                    // guarded by state_mutex_

  mutable std::mutex conn_ptr_mutex_;
  std::shared_ptr<Conn> conn_;  // guarded by conn_ptr_mutex_

  std::atomic<std::uint64_t> next_expected_{0};
  std::atomic<bool> goodbye_received_{false};
  std::atomic<bool> closed_{false};
  std::atomic<bool> dead_{false};

  mutable std::mutex stats_mutex_;
  SessionStats stats_;  // guarded by stats_mutex_
};

}  // namespace vela::comm::session
