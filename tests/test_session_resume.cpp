// Session-resume tests for the socket backend (`ctest -L degrade`,
// DESIGN.md §11).
//
// The contract under test: a severed TCP connection loses no frames and
// duplicates none — the transport reconnects under a bounded, deterministic
// backoff schedule, replays every unacknowledged session record, and the
// receiver's sequence numbers dedupe anything the cut left ambiguous. The
// property sweep tears the connection at EVERY byte offset of a session
// record (0 .. kSessionDataOverheadBytes + frame size) and requires
// exactly-once in-order delivery at each offset. The conservation audit
// proves replayed bytes are charged exactly once at the accounting boundary.
// The multi-process RemoteSocketTransport runs the same protocol over a
// dial/adopt pair through an in-process PeerListener: a mid-stream cut must
// resume through redial → kIdent → take_resume → kHello → replay in both
// lane orientations, and an adopted lane whose dialer never returns must
// close once its reconnect budget is spent.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/endpoint.h"
#include "comm/fault_injector.h"
#include "comm/message.h"
#include "comm/peer_listener.h"
#include "comm/remote_transport.h"
#include "comm/session.h"
#include "comm/transport.h"
#include "tensor/tensor.h"
#include "util/audit.h"
#include "util/clock.h"

namespace vela {
namespace {

using std::chrono::milliseconds;

std::vector<std::uint8_t> test_frame(std::size_t len, std::uint8_t tag) {
  std::vector<std::uint8_t> f(len);
  for (std::size_t i = 0; i < len; ++i) {
    f[i] = static_cast<std::uint8_t>(tag * 31u + i * 7u + 1u);
  }
  return f;
}

// --- torn-connection property sweep -----------------------------------------

TEST(SessionResume, TornConnectionAtEveryByteOffsetLosesNothing) {
  constexpr std::size_t kFrameLen = 32;
  const std::size_t record_len = comm::kSessionDataOverheadBytes + kFrameLen;
  // Offset 0 cuts before any byte; record_len cuts between records (the
  // whole severed record made it onto the wire).
  for (std::size_t cut = 0; cut <= record_len; ++cut) {
    SCOPED_TRACE("byte_offset=" + std::to_string(cut));
    util::FakeClock clock;
    comm::ConnectionScript script;
    script.severs.push_back({1, cut});
    comm::SocketTransport transport(&clock, comm::ReconnectPolicy{});
    transport.set_connection_script(&script);

    for (std::uint8_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(transport.send(test_frame(kFrameLen, i)));
    }
    for (std::uint8_t i = 0; i < 3; ++i) {
      const auto got = transport.receive();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, test_frame(kFrameLen, i));
    }

    const comm::SessionStats stats = transport.session_stats();
    EXPECT_EQ(stats.frames_sent, 3u);
    EXPECT_EQ(stats.severs_injected, 1u);
    EXPECT_EQ(stats.reconnects, 1u);
    // Nothing was acked before the cut, so resume replays frames 0 and 1.
    EXPECT_EQ(stats.replayed_frames, 2u);
    EXPECT_EQ(stats.replayed_bytes, 2u * record_len);
    transport.close();
  }
}

TEST(SessionResume, HelloHandshakePrunesDeliveredFrames) {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 5});
  comm::SocketTransport transport(&clock, comm::ReconnectPolicy{});
  transport.set_connection_script(&script);

  // Frame 0 round-trips before the sever: the receiver's next-expected
  // sequence number (carried by the resume hello) is authoritative, so the
  // replay after the cut cannot contain more than frames {0, 1} and the
  // receiver dedupes any overlap.
  ASSERT_TRUE(transport.send(test_frame(16, 0)));
  auto got = transport.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, test_frame(16, 0));

  ASSERT_TRUE(transport.send(test_frame(16, 1)));  // severed mid-record
  ASSERT_TRUE(transport.send(test_frame(16, 2)));
  for (std::uint8_t i = 1; i <= 2; ++i) {
    got = transport.receive();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, test_frame(16, i));
  }

  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_GE(stats.replayed_frames, 1u);
  EXPECT_LE(stats.replayed_frames, 2u);
  // Exactly-once held above; any replayed copy of frame 0 was discarded.
  EXPECT_EQ(stats.duplicates_discarded, stats.replayed_frames - 1u);
  transport.close();
}

TEST(SessionResume, ConcurrentReceiverSurvivesRepeatedSevers) {
  constexpr int kFrames = 60;
  util::FakeClock clock;
  comm::ConnectionScript script;
  // Full-record cuts while the receiver is actively draining: the replay
  // may race a delivery that already happened, which is exactly what the
  // receiver-side sequence dedupe is for.
  const std::size_t record_len = comm::kSessionDataOverheadBytes + 24;
  script.severs.push_back({10, record_len});
  script.severs.push_back({25, 7});
  script.severs.push_back({40, record_len});
  comm::SocketTransport transport(&clock, comm::ReconnectPolicy{});
  transport.set_connection_script(&script);

  std::vector<std::vector<std::uint8_t>> received;
  std::thread rx([&transport, &received] {
    while (auto f = transport.receive()) received.push_back(std::move(*f));
  });
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(transport.send(test_frame(24, static_cast<std::uint8_t>(i))));
  }
  transport.close();
  rx.join();

  // Exactly once, in order — no matter how deliveries interleaved with the
  // three resumes.
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[i], test_frame(24, static_cast<std::uint8_t>(i)))
        << "frame " << i;
  }
  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.severs_injected, 3u);
  EXPECT_EQ(stats.reconnects, 3u);
  EXPECT_GE(stats.replayed_frames, 3u);
}

// --- reconnect schedule ------------------------------------------------------

TEST(SessionResume, RefusalsShortOfTheBudgetRecover) {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 0});
  script.refuse_reconnects = 3;
  comm::ReconnectPolicy policy;  // base 5ms, ×2, max 250ms, 8 attempts
  comm::SocketTransport transport(&clock, policy);
  transport.set_connection_script(&script);

  for (std::uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(transport.send(test_frame(16, i)));
  }
  for (std::uint8_t i = 0; i < 3; ++i) {
    const auto got = transport.receive();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, test_frame(16, i));
  }

  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.refused_connects, 3u);
  EXPECT_EQ(stats.reconnects, 1u);
  // Attempt 1 is immediate; attempts 2–4 back off 5, 10, 20 ms plus a
  // seeded jitter in [0, base] each — all in virtual time.
  EXPECT_EQ(clock.sleep_calls(), 3u);
  EXPECT_GE(clock.total_slept(), milliseconds(35));
  EXPECT_LE(clock.total_slept(), milliseconds(50));
  transport.close();
}

TEST(SessionResume, BackoffScheduleIsDeterministicAndBounded) {
  const auto run = [](comm::ReconnectPolicy policy) {
    util::FakeClock clock;
    comm::ConnectionScript script;
    script.severs.push_back({0, 0});
    script.refuse_reconnects = 6;
    comm::SocketTransport transport(&clock, policy);
    transport.set_connection_script(&script);
    EXPECT_TRUE(transport.send(test_frame(8, 1)));
    const auto got = transport.receive();
    EXPECT_TRUE(got.has_value());
    transport.close();
    return clock.total_slept();
  };

  comm::ReconnectPolicy policy;
  const auto first = run(policy);
  const auto second = run(policy);
  // Same seed, same schedule: the jitter is deterministic by construction.
  EXPECT_EQ(first, second);
  // Attempts 2–7 back off 5, 10, 20, 40, 80, 160 ms (+ jitter ≤ 5 each).
  EXPECT_GE(first, milliseconds(315));
  EXPECT_LE(first, milliseconds(345));

  // A tight cap truncates the exponential tail.
  policy.backoff_max = milliseconds(20);
  const auto capped = run(policy);
  EXPECT_GE(capped, milliseconds(5 + 10 + 20 * 4));
  EXPECT_LE(capped, milliseconds(5 + 10 + 20 * 4 + 6 * 5));
}

TEST(SessionResume, ExhaustedReconnectBudgetKillsTheSession) {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 0});
  script.refuse_reconnects = 99;  // >= budget: the sever is permanent
  comm::ReconnectPolicy policy;
  policy.max_attempts = 3;
  comm::SocketTransport transport(&clock, policy);
  transport.set_connection_script(&script);

  EXPECT_TRUE(transport.send(test_frame(16, 0)));
  EXPECT_FALSE(transport.send(test_frame(16, 1)));  // budget exhausted here
  EXPECT_TRUE(transport.closed());
  EXPECT_FALSE(transport.send(test_frame(16, 2)));

  // The receiver must terminate (frames the cut stranded may be lost; the
  // layers above turn this into worker death and re-placement).
  std::size_t drained = 0;
  while (transport.receive().has_value()) ++drained;
  EXPECT_LE(drained, 1u);

  const comm::SessionStats stats = transport.session_stats();
  EXPECT_EQ(stats.refused_connects, 3u);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_EQ(stats.severs_injected, 1u);
}

TEST(SessionResume, AcceptDelayIsChargedToTheInjectedClock) {
  util::FakeClock clock;
  comm::ConnectionScript script;
  script.severs.push_back({1, 3});
  script.accept_delay = milliseconds(75);
  comm::SocketTransport transport(&clock, comm::ReconnectPolicy{});
  transport.set_connection_script(&script);

  for (std::uint8_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(transport.send(test_frame(16, i)));
  }
  for (std::uint8_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(transport.receive().has_value());
  }
  // Attempt 1 carries no backoff sleep, so the only charge is the scripted
  // accept stall — in virtual time, not wall time.
  EXPECT_EQ(clock.total_slept(), milliseconds(75));
  EXPECT_EQ(clock.sleep_calls(), 1u);
  transport.close();
}

// --- backend invariance at the transport layer -------------------------------

TEST(SessionResume, InProcScriptedSeverClosesTheQueuePermanently) {
  comm::InProcTransport transport;
  comm::ConnectionScript script;
  script.severs.push_back({2, 0});
  script.refuse_reconnects = 99;
  transport.set_connection_script(&script);

  EXPECT_TRUE(transport.send(test_frame(16, 0)));
  EXPECT_TRUE(transport.send(test_frame(16, 1)));
  EXPECT_FALSE(transport.send(test_frame(16, 2)));  // sever: permanent close
  EXPECT_TRUE(transport.closed());
  EXPECT_FALSE(transport.send(test_frame(16, 3)));

  // Close-then-drain: frames accepted before the sever are delivered.
  auto got = transport.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, test_frame(16, 0));
  got = transport.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, test_frame(16, 1));
  EXPECT_FALSE(transport.receive().has_value());
}

TEST(SessionResume, SeverPlusRefuseAllKillsTheLinkOnBothBackends) {
  // The backend-invariant "worker killed" signal: sends before the sever
  // succeed, the severed send and everything after it fail, and the
  // transport reports closed. (What the receiver can still drain differs —
  // in-proc keeps its queue, TCP loses kernel-buffered bytes with the
  // connection — which is why the degrade path above this layer only
  // relies on the death signal, not on drained bytes.)
  util::FakeClock clock;
  comm::ReconnectPolicy policy;
  policy.max_attempts = 2;
  comm::ConnectionScript script;
  script.severs.push_back({1, 0});
  script.refuse_reconnects = 99;

  comm::InProcTransport inproc;
  comm::SocketTransport socket(&clock, policy);
  for (comm::Transport* t :
       std::vector<comm::Transport*>{&inproc, &socket}) {
    SCOPED_TRACE(t->name());
    t->set_connection_script(&script);
    EXPECT_TRUE(t->send(test_frame(16, 0)));
    EXPECT_FALSE(t->send(test_frame(16, 1)));
    EXPECT_FALSE(t->send(test_frame(16, 2)));
    EXPECT_TRUE(t->closed());
    std::size_t drained = 0;
    while (t->receive().has_value()) ++drained;
    EXPECT_LE(drained, 1u);
  }
}

// --- conservation audit ------------------------------------------------------

TEST(SessionResume, ReplayedBytesAreChargedExactlyOnce) {
  // The ledger accounts at the Endpoint (message) boundary; session replays
  // happen below it. With replays > 0 and the balance intact, the replayed
  // bytes were charged exactly once: the receiver's dedupe keeps a replayed
  // frame from ever reaching `delivered` twice.
  audit::set_enabled_for_testing(true);
  audit::ConservationLedger::instance().reset_for_testing();
  std::vector<std::pair<std::string, std::string>> violations;
  audit::set_violation_handler(
      [&violations](const std::string& category, const std::string& detail) {
        violations.emplace_back(category, detail);
      });
  {
    comm::FaultPlan plan;
    comm::ConnectionFaultRule rule;
    rule.link = 0;
    rule.dir = comm::LinkDir::kToWorker;
    rule.script.severs.push_back({2, 7});
    plan.connection_rules.push_back(rule);
    comm::FaultInjector injector(plan);

    comm::DuplexLink link(comm::TransportKind::kSocket, 0, 1, nullptr);
    link.set_fault_injector(&injector, 0);
    for (std::uint64_t i = 0; i < 6; ++i) {
      comm::Message m;
      m.type = comm::MessageType::kExpertForward;
      m.request_id = i;
      m.payload = Tensor::ones({2, 4});
      ASSERT_TRUE(link.to_worker.send(std::move(m)));
    }
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto got = link.to_worker.receive();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->request_id, i);
    }
    const auto snap = audit::ConservationLedger::instance().snapshot();
    EXPECT_GE(snap.session_replays, 1u);
    EXPECT_GT(snap.session_replay_bytes, 0u);
    EXPECT_TRUE(snap.balanced());
    EXPECT_EQ(snap.posted, snap.delivered);  // everything arrived, no drops
    audit::ConservationLedger::instance().check("session-resume-test");
    link.close();
  }
  audit::set_violation_handler(nullptr);
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " audit violation(s), first: "
      << violations.front().first << ": " << violations.front().second;
}

// --- remote lanes: the multi-process resume path -----------------------------

using Role = comm::RemoteSocketTransport::Role;

// One lane of a master↔worker link, both ends in this process: the worker
// end dials the listener and identifies, the master end adopts the
// connection. `dialer_receives` picks the orientation — the to-worker lane
// (dialing receiver, adopted sender) or the to-master lane (dialing sender,
// adopted receiver). Members are declared so the listener outlives both
// transports.
struct RemoteLane {
  std::unique_ptr<comm::PeerListener> listener;
  std::unique_ptr<comm::RemoteSocketTransport> dialer;
  std::unique_ptr<comm::RemoteSocketTransport> adopted;
  comm::RemoteSocketTransport* sender = nullptr;
  comm::RemoteSocketTransport* receiver = nullptr;
};

std::unique_ptr<RemoteLane> make_remote_lane(bool dialer_receives,
                                             comm::ReconnectPolicy policy) {
  auto lane = std::make_unique<RemoteLane>();
  lane->listener = comm::make_peer_listener({});
  comm::session::PeerIdentity id;
  id.rank = 3;
  id.lane = dialer_receives ? comm::session::kLaneToWorker
                            : comm::session::kLaneToMaster;
  id.capacity = 2;
  id.session_id = 0xC0FFEEu;
  lane->dialer = comm::RemoteSocketTransport::dial(
      lane->listener->bound_port(),
      dialer_receives ? Role::kReceiver : Role::kSender, id, nullptr, policy);
  comm::AcceptedPeer peer =
      lane->listener->take_peer(id.rank, id.lane, milliseconds(5000));
  EXPECT_TRUE(peer.valid());
  if (!peer.valid()) return nullptr;
  lane->adopted = comm::RemoteSocketTransport::adopt(
      std::move(peer), dialer_receives ? Role::kSender : Role::kReceiver,
      lane->listener.get(), nullptr, policy);
  lane->sender = dialer_receives ? lane->adopted.get() : lane->dialer.get();
  lane->receiver = dialer_receives ? lane->dialer.get() : lane->adopted.get();
  return lane;
}

struct SeveredStream {
  std::vector<std::vector<std::uint8_t>> received;
  comm::SessionStats sender;
  comm::SessionStats receiver;
};

// Streams `frames` frames over `lane` with the receiver on its own thread
// (as in a real fleet: the two ends resume independently). Once the first
// `cut_after` frames have been delivered, the sender's connection is cut at
// the socket level; the next send() hits the dead stream and resumes.
SeveredStream run_severed_stream(RemoteLane* lane, int frames, int cut_after,
                                 std::size_t frame_len) {
  SeveredStream out;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t delivered = 0;
  std::thread rx([&] {
    while (auto f = lane->receiver->receive()) {
      std::lock_guard<std::mutex> lock(mu);
      out.received.push_back(std::move(*f));
      delivered = out.received.size();
      cv.notify_all();
    }
  });
  for (int i = 0; i < frames; ++i) {
    if (i == cut_after) {
      // Everything sent so far was delivered (and acked), so the resume
      // hello names exactly `cut_after` and only the cut frame replays.
      {
        std::unique_lock<std::mutex> lock(mu);
        const bool ok = cv.wait_for(lock, std::chrono::seconds(10), [&] {
          return delivered == static_cast<std::size_t>(cut_after);
        });
        EXPECT_TRUE(ok) << "receiver stalled before the cut";
      }
      lane->sender->sever_for_testing();
    }
    EXPECT_TRUE(lane->sender->send(
        test_frame(frame_len, static_cast<std::uint8_t>(i))))
        << "frame " << i;
  }
  lane->sender->close();  // goodbye: the receiver thread drains and exits
  rx.join();
  out.sender = lane->sender->session_stats();
  out.receiver = lane->receiver->session_stats();
  return out;
}

TEST(RemoteSessionResume, SeverMidStreamDeliversExactlyOnceBothOrientations) {
  constexpr int kFrames = 12;
  constexpr int kCutAfter = 6;
  constexpr std::size_t kFrameLen = 40;
  const std::size_t record_len = comm::kSessionDataOverheadBytes + kFrameLen;
  for (const bool dialer_receives : {true, false}) {
    SCOPED_TRACE(dialer_receives ? "dialing receiver, adopted sender"
                                 : "dialing sender, adopted receiver");
    auto lane = make_remote_lane(dialer_receives, comm::ReconnectPolicy{});
    ASSERT_NE(lane, nullptr);
    const SeveredStream run =
        run_severed_stream(lane.get(), kFrames, kCutAfter, kFrameLen);

    ASSERT_EQ(run.received.size(), static_cast<std::size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_EQ(run.received[i],
                test_frame(kFrameLen, static_cast<std::uint8_t>(i)))
          << "frame " << i;
    }
    EXPECT_EQ(run.sender.frames_sent, static_cast<std::uint64_t>(kFrames));
    EXPECT_EQ(run.sender.reconnects, 1u);
    EXPECT_EQ(run.receiver.reconnects, 1u);
    EXPECT_EQ(run.sender.replayed_frames, 1u);
    EXPECT_EQ(run.sender.replayed_bytes,
              run.sender.replayed_frames * record_len);
    EXPECT_EQ(run.receiver.replayed_frames, 0u);
    EXPECT_EQ(run.receiver.duplicates_discarded, 0u);
    EXPECT_TRUE(lane->sender->closed());
  }
}

TEST(RemoteSessionResume, ReplayedBytesAreChargedExactlyOnce) {
  audit::set_enabled_for_testing(true);
  audit::ConservationLedger::instance().reset_for_testing();
  std::vector<std::pair<std::string, std::string>> violations;
  audit::set_violation_handler(
      [&violations](const std::string& category, const std::string& detail) {
        violations.emplace_back(category, detail);
      });
  std::uint64_t replayed_frames = 0;
  std::uint64_t replayed_bytes = 0;
  for (const bool dialer_receives : {true, false}) {
    SCOPED_TRACE(dialer_receives ? "dialing receiver" : "dialing sender");
    auto lane = make_remote_lane(dialer_receives, comm::ReconnectPolicy{});
    ASSERT_NE(lane, nullptr);
    const SeveredStream run = run_severed_stream(lane.get(), 10, 4, 24);
    EXPECT_EQ(run.received.size(), 10u);
    replayed_frames +=
        run.sender.replayed_frames + run.receiver.replayed_frames;
    replayed_bytes += run.sender.replayed_bytes + run.receiver.replayed_bytes;
  }
  // Each replayed record is charged once, by the half that replays it —
  // neither the resume handshake nor the receiver's dedupe charges again.
  const auto snap = audit::ConservationLedger::instance().snapshot();
  EXPECT_EQ(replayed_frames, 2u);
  EXPECT_EQ(snap.session_replays, replayed_frames);
  EXPECT_EQ(snap.session_replay_bytes, replayed_bytes);
  EXPECT_TRUE(snap.balanced());
  audit::ConservationLedger::instance().check("remote-session-resume-test");
  audit::set_violation_handler(nullptr);
  audit::ConservationLedger::instance().reset_for_testing();
  audit::set_enabled_for_testing(false);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " audit violation(s), first: "
      << violations.front().first << ": " << violations.front().second;
}

TEST(RemoteSessionResume, AdoptedLaneWithoutDialerClosesAfterBudget) {
  // The adopted (master) end waits for the peer to re-identify; each
  // take_resume wait is one attempt. With the dialer gone for good, the
  // lane must report closed after max_attempts waits instead of hanging.
  comm::ReconnectPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_max = milliseconds(20);  // per-attempt wait floors at 50 ms
  for (const bool dialer_receives : {true, false}) {
    SCOPED_TRACE(dialer_receives ? "adopted sender" : "adopted receiver");
    auto lane = make_remote_lane(dialer_receives, policy);
    ASSERT_NE(lane, nullptr);
    comm::RemoteSocketTransport* adopted = lane->adopted.get();
    ASSERT_TRUE(lane->sender->send(test_frame(16, 0)));
    const auto first = lane->receiver->receive();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, test_frame(16, 0));

    lane->dialer.reset();  // the worker process is gone and never redials
    adopted->sever_for_testing();
    if (dialer_receives) {
      EXPECT_FALSE(adopted->send(test_frame(16, 1)));
    } else {
      EXPECT_FALSE(adopted->receive().has_value());
    }
    EXPECT_TRUE(adopted->closed());
    EXPECT_EQ(adopted->session_stats().reconnects, 0u);
    if (dialer_receives) {
      EXPECT_FALSE(adopted->send(test_frame(16, 2)));
    }
  }
}

}  // namespace
}  // namespace vela
