// The Expert Manager process of Fig. 4, realized as a thread — and the one
// expert server of the repository: a VELA worker and an expert-parallel
// device (ep/runtime.h, the Fig. 2 baseline) both host a slice of experts
// this way.
//
// A worker owns a subset of the model's experts, serves forward requests
// (keeping the local autograd tape alive per request), resumes backward
// passes when the master ships output gradients, and runs a *local* AdamW
// per expert at the end of every step — no gradient ever leaves the worker,
// which is precisely how VELA avoids data parallelism's all-reduce.
//
// Requests arrive on one inbox and every reply travels on the reply lane
// named by its request's Message::source. A VELA worker has one lane (its
// master); an EP device has one per peer shard. With several lanes, backward
// requests from different sources race into the inbox, so each source's
// parameter-gradient deltas are staged apart and folded in ascending source
// order at kOptimizerStep: the summed gradient, and with it the whole
// trajectory, is independent of arrival order. With one lane, arrival order
// is the sender's order and gradients accumulate in place.
//
// Expert state lives in a store::ExpertStore (DESIGN.md §15), not in the
// worker itself: with VELA_EXPERT_BUDGET unset the InMemoryStore backend
// reproduces the old everything-resident semantics bit for bit; with a
// budget the PagedStore spills cold experts to disk. The worker pins an
// expert for exactly the window where its resident object carries state a
// paged image cannot — a live autograd tape, forward through backward
// retire — and keeps all pin bookkeeping on the worker thread, so the
// parallel compute tasks below only ever touch pinned experts.
//
// Request handling is idempotent: every (type, request id) pair is served at
// most once and its reply cached, so a master retransmission (after a lost
// request or a lost reply) replays the cached reply instead of re-executing.
// Checksummed messages that fail verification are dropped — the master's
// timeout/retry recovers them. Both are prerequisites for the retry layer in
// core/fault_tolerance.h. A request from a source with no reply lane is a
// protocol error.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "comm/endpoint.h"
#include "core/protocol.h"
#include "nn/expert.h"
#include "nn/optimizer.h"
#include "store/expert_store.h"

namespace vela::comm {
class TrafficMeter;
}

namespace vela::core {

class ExpertWorker {
 public:
  // `inbox` receives every request; `lanes[s]` carries the replies to the
  // requests whose Message::source is s. `initial_experts` are constructed
  // (from the spec's base_seed) before the thread starts. `meter` (optional)
  // receives the store's page-in/page-out byte series — in-process workers
  // share the master's TrafficMeter, remote vela_nodes run unmetered.
  ExpertWorker(WorkerSpec spec, comm::Endpoint* inbox,
               std::vector<comm::Endpoint*> lanes,
               std::vector<ExpertKey> initial_experts,
               comm::TrafficMeter* meter = nullptr);
  // The duplex master↔worker connection: receives on link->to_worker and
  // replies on link->to_master, the single lane.
  ExpertWorker(WorkerSpec spec, comm::DuplexLink* link,
               std::vector<ExpertKey> initial_experts,
               comm::TrafficMeter* meter = nullptr)
      : ExpertWorker(std::move(spec), &link->to_worker, {&link->to_master},
                     std::move(initial_experts), meter) {}
  ~ExpertWorker();

  ExpertWorker(const ExpertWorker&) = delete;
  ExpertWorker& operator=(const ExpertWorker&) = delete;

  void start();
  // Blocks until the worker thread exits (send kShutdown first, or close the
  // channel).
  void join();

  const WorkerSpec& spec() const { return spec_; }
  // Thread-unsafe introspection; call only after join() (tests).
  std::size_t experts_hosted() const { return store_->size(); }
  std::size_t requests_served() const { return requests_served_; }
  std::size_t duplicates_replayed() const { return duplicates_replayed_; }
  std::size_t corrupt_dropped() const { return corrupt_dropped_; }
  const store::ExpertStore& expert_store() const { return *store_; }

 private:
  struct PendingRequest {
    ExpertKey key;
    nn::SwiGLUExpert* expert = nullptr;  // valid while the request is pinned
    ag::Variable input;
    ag::Variable output;
  };
  // Backward fragments of one logical transfer (the master's VELA_OVERLAP
  // dispatch pipeline) collected until the train is complete; keyed by
  // chunk index, so iteration is chunk order. May span worker batches.
  struct PartialTrain {
    std::size_t chunk_count = 0;
    std::map<std::size_t, comm::Message> fragments;
  };

  void run();
  void run_loop(const std::string& tag);
  // Drains and handles one batch of messages. Consecutive forward (resp.
  // backward) requests are computed as parallel tasks on the shared
  // util::ThreadPool; everything else is handled serially in arrival order.
  // Returns false when the worker must terminate (closed channel, shutdown
  // or injected crash).
  bool process_batch(std::vector<comm::Message> batch, const std::string& tag);
  // Computes a run of forward (backward) requests in parallel and sends the
  // replies in arrival order. Backward runs are grouped by expert id so each
  // expert's gradient accumulation stays sequential (and so deterministic).
  bool handle_forward_run(std::vector<comm::Message>& run);
  bool handle_backward_run(std::vector<comm::Message>& run);
  // Backpropagates a complete fragment train through ONE full-batch tape
  // (forward recomputed on the concatenated chunks — the expert kernels are
  // row-local, so values match the per-chunk tapes bit-for-bit) and replies
  // per fragment in chunk order. Keeps the LoRA gradient accumulation order
  // identical to the unchunked exchange.
  bool stitched_backward(std::uint64_t base_id, PartialTrain train);
  void install_expert(const ExpertKey& key, const Tensor* state);
  // CheckError (with the historical message) when the store does not host
  // `key` — the protocol-violation death the master observes as silence.
  void require_hosted(const ExpertKey& key) const;
  // Unpins every pending request's expert and drops the tapes (step
  // boundary, abort).
  void release_pending();
  // Sends `reply` on `request`'s lane and caches a copy under its dedupe
  // key for idempotent replay. Returns false when the lane is gone
  // (terminate loop).
  bool reply_and_cache(const comm::Message& request, comm::Message reply);
  // Multi-lane workers: moves the gradient delta the last backward left in
  // `params` into the per-source slot and re-zeroes the shared buffers.
  static void stage_grads(std::vector<Tensor>& slot,
                          std::vector<nn::Parameter>& params);
  // Sets the expert's gradients to its staged deltas summed in ascending
  // source order (no-op when nothing is staged for `key`).
  void fold_staged(const ExpertKey& key, nn::SwiGLUExpert& expert);
  // Closes every reply lane (protocol error, crash).
  void close_lanes();
  static std::uint64_t dedupe_key(const comm::Message& m) {
    // (type, id) key matching ReliableLink's: forward and backward of the
    // same request share an id, so the type disambiguates the cache entry.
    return (static_cast<std::uint64_t>(m.type) << 56) ^ m.request_id;
  }

  WorkerSpec spec_;
  // Dispatch-payload codec resolved from the spec (comm/wire_codec.h) —
  // necessarily the same resolution the master's broker performed. Applies
  // to compute replies only; state/snapshot replies stay raw fp32.
  comm::WireCodec codec_;
  comm::Endpoint* inbox_;
  std::vector<comm::Endpoint*> lanes_;  // [request source]
  std::unique_ptr<store::ExpertStore> store_;
  // Every pending request holds one pin on its expert: the tape references
  // the expert's parameter nodes, so eviction before the backward retires
  // would orphan the gradients the backward is about to accumulate.
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  // Incomplete backward fragment trains, keyed by the train's base request
  // id (fragment ids are consecutive: base + chunk_index). Cleared with
  // pending_ at step boundaries and aborts.
  std::unordered_map<std::uint64_t, PartialTrain> partial_backward_;
  // Multi-lane workers only: expert → source → parameter-gradient deltas
  // (parallel to the expert's trainable_parameters()), folded and cleared
  // at kOptimizerStep, dropped by kAbortStep and kCrash.
  std::map<ExpertKey, std::map<std::uint32_t, std::vector<Tensor>>> staged_;
  // (request type, request id) → cached reply, bounded FIFO.
  std::unordered_map<std::uint64_t, comm::Message> reply_cache_;
  std::deque<std::uint64_t> reply_cache_order_;
  std::size_t requests_served_ = 0;
  std::size_t duplicates_replayed_ = 0;
  std::size_t corrupt_dropped_ = 0;
  std::thread thread_;
};

}  // namespace vela::core
