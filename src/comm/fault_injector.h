// Deterministic, scriptable fault injection for the master↔worker fabric.
//
// An injector attaches to the endpoints of one runtime (Endpoint::send
// consults it before publishing a message) and perturbs traffic according to a
// FaultPlan: scripted one-shot rules that fire on the nth message of a
// specific link direction, plus seeded background fault rates. Because each
// channel direction has a single producer (the master thread or one worker
// thread), per-link sequence numbers — and therefore the whole plan — are
// bit-reproducible across runs.
//
// Supported fault kinds:
//   kDrop      — the message never arrives (sender bytes still metered: the
//                NIC transmitted them).
//   kDelay     — the message arrives, but `delay_seconds` of link stall are
//                charged to the CommClock via consume_delay_seconds().
//   kDuplicate — the message arrives twice (both transmissions metered);
//                receivers dedupe by request id.
//   kCorrupt   — payload bits flip in flight; the checksum the channel
//                stamped no longer matches and the receiver drops it.
//   kSever     — the channel closes permanently (link death / worker loss);
//                every later send on it fails.
//   kCrashWorker — the message is replaced by a kCrash poison pill: the
//                worker simulates an abrupt process death (closes both
//                channel directions, loses all hosted state).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/message.h"
#include "comm/transport.h"
#include "util/rng.h"

namespace vela::comm {

enum class FaultKind : std::uint8_t {
  kNone,
  kDrop,
  kDelay,
  kDuplicate,
  kCorrupt,
  kSever,
  kCrashWorker,
};

const char* fault_kind_name(FaultKind k);

// Direction of a DuplexLink channel, from the master's point of view.
enum class LinkDir : std::uint8_t { kToWorker = 0, kToMaster = 1 };

// One scripted fault: fires exactly once, on the `message_index`-th message
// (0-based) sent on link `link` in direction `dir` over the injector's
// lifetime (sequence numbers survive worker respawns).
struct FaultRule {
  std::size_t link = 0;
  LinkDir dir = LinkDir::kToWorker;
  std::uint64_t message_index = 0;
  FaultKind kind = FaultKind::kDrop;
  double delay_seconds = 0.0;  // kDelay only
};

// Connection-level fault script for one link direction (DESIGN.md §11):
// faults BELOW the frame layer — severing the byte stream mid-record,
// refusing reconnect attempts, delaying accepts. The Endpoint pushes the
// script down to its Transport; on the socket backend these exercise the
// session-resume machinery, on the in-proc backend a sever is permanent
// link death (see transport.h).
struct ConnectionFaultRule {
  std::size_t link = 0;
  LinkDir dir = LinkDir::kToWorker;
  ConnectionScript script;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  // At most one ConnectionFaultRule per (link, dir); the Endpoint installs
  // the first match at set_fault_injector time.
  std::vector<ConnectionFaultRule> connection_rules;
  // Background fault rates in [0, 1), evaluated per message from a seeded
  // per-link-direction stream after scripted rules. At most one background
  // fault fires per message.
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  double duplicate_rate = 0.0;
  double delay_rate = 0.0;
  double delay_seconds = 0.0;  // charge per background delay
  std::uint64_t seed = 0;
};

struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t severed = 0;
  std::uint64_t crashed = 0;

  std::uint64_t total() const {
    return dropped + delayed + duplicated + corrupted + severed + crashed;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Called by Endpoint::send with the outgoing message; may mutate it
  // (corruption, crash conversion). Returns the fault applied to this send.
  // Thread-safe; the per-(link, dir) sequence counter advances exactly once
  // per call.
  FaultKind on_send(std::size_t link, LinkDir dir, Message& msg);

  FaultCounters counters() const;
  std::uint64_t faults_injected() const;

  // Link-stall seconds accumulated by kDelay faults since the last call;
  // the caller charges them to the step's CommClock time.
  double consume_delay_seconds();

  std::uint64_t messages_seen(std::size_t link, LinkDir dir) const;

  // The connection-fault script for a link direction, or nullptr. The
  // returned pointer lives as long as the injector (the Endpoint hands it
  // straight to its Transport).
  const ConnectionScript* connection_script(std::size_t link,
                                            LinkDir dir) const;

 private:
  struct Lane {
    std::uint64_t next_index = 0;
    Rng rng{1};
    bool rng_init = false;
  };

  FaultKind pick_fault(Lane& lane, std::size_t link, LinkDir dir,
                       std::uint64_t index, double* delay_out);
  Lane& lane(std::size_t link, LinkDir dir);

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Lane> lanes_;  // key = link*2 + dir
  std::vector<bool> rule_fired_;
  FaultCounters counters_;
  double pending_delay_seconds_ = 0.0;
};

}  // namespace vela::comm
