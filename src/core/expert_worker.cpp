#include "core/expert_worker.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vela::core {

ExpertWorker::ExpertWorker(WorkerSpec spec, comm::Endpoint* inbox,
                           std::vector<comm::Endpoint*> lanes,
                           std::vector<ExpertKey> initial_experts,
                           comm::TrafficMeter* meter)
    : spec_(std::move(spec)),
      codec_(comm::WireCodec::resolve(spec_.wire_dtype, spec_.wire_bits,
                                      spec_.quantize_wire, spec_.q8_block)),
      inbox_(inbox),
      lanes_(std::move(lanes)) {
  VELA_CHECK(inbox_ != nullptr && !lanes_.empty());
  store::StoreConfig cfg;
  cfg.budget = spec_.expert_budget;
  cfg.dir = spec_.store_dir;
  cfg.dtype = spec_.store_dtype;
  cfg.meter = meter;
  // The factory rebuilds everything an expert derives from its seed: frozen
  // bases, the q8 compute pack, a fresh optimizer. Page-in layers the
  // spilled adapters/gradients/moments on top.
  store_ = store::make_expert_store(
      cfg.resolved(), [this](const ExpertKey& key) {
        Rng rng(nn::expert_seed(spec_.base_seed, key.layer, key.expert));
        store::ExpertSlot slot;
        slot.expert = std::make_unique<nn::SwiGLUExpert>(
            "layer" + std::to_string(key.layer) + ".expert" +
                std::to_string(key.expert),
            spec_.model_dim, spec_.hidden_dim, spec_.lora, rng);
        if (codec_.is_int8()) {
          // Quantized compute tier: the frozen bases run through the packed
          // q8 GEMM. Deterministic per expert (pack depends only on the
          // seeded weights), so migration, respawn and page-in re-derive the
          // identical pack.
          slot.expert->enable_q8_compute(codec_.block);
        }
        if (spec_.lora.enabled) {
          slot.optimizer = std::make_unique<nn::AdamW>(
              slot.expert->trainable_parameters(), spec_.adamw);
        }
        return slot;
      });
  for (const auto& key : initial_experts) {
    install_expert(key, nullptr);
  }
}

ExpertWorker::~ExpertWorker() {
  if (thread_.joinable()) {
    inbox_->close();
    thread_.join();
  }
}

void ExpertWorker::start() {
  VELA_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void ExpertWorker::join() {
  if (thread_.joinable()) thread_.join();
}

void ExpertWorker::install_expert(const ExpertKey& key, const Tensor* state) {
  VELA_CHECK_MSG(!store_->contains(key),
                 "expert " << to_string(key) << " already hosted on worker "
                           << spec_.worker_id);
  store_->emplace(key);
  if (state != nullptr) {
    store::Pinned pinned(*store_, key);
    unpack_trainable(*state, pinned.expert());
  }
}

void ExpertWorker::require_hosted(const ExpertKey& key) const {
  VELA_CHECK_MSG(store_->contains(key),
                 "worker " << spec_.worker_id << " does not host expert "
                           << to_string(key));
}

void ExpertWorker::release_pending() {
  for (auto& [id, req] : pending_) {
    store_->unpin(req.key);
  }
  pending_.clear();
}

void ExpertWorker::run() {
  const std::string tag = "worker/" + std::to_string(spec_.worker_id);
  try {
    run_loop(tag);
  } catch (const CheckError& err) {
    // A protocol violation must not take the whole process down via an
    // exception escaping the thread; the worker dies loudly in the log and
    // stops answering, which the master detects as a closed/silent channel.
    VELA_LOG_ERROR(tag) << "worker terminating on protocol error: "
                        << err.what();
    close_lanes();
  }
}

void ExpertWorker::close_lanes() {
  for (comm::Endpoint* lane : lanes_) lane->close();
}

bool ExpertWorker::reply_and_cache(const comm::Message& request,
                                   comm::Message reply) {
  constexpr std::size_t kReplyCacheCapacity = 512;
  const std::uint64_t key = dedupe_key(request);
  reply_cache_[key] = reply;
  reply_cache_order_.push_back(key);
  while (reply_cache_order_.size() > kReplyCacheCapacity) {
    reply_cache_.erase(reply_cache_order_.front());
    reply_cache_order_.pop_front();
  }
  return lanes_[request.source]->send(std::move(reply));
}

void ExpertWorker::stage_grads(std::vector<Tensor>& slot,
                               std::vector<nn::Parameter>& params) {
  const bool fresh = slot.empty();
  if (fresh) slot.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ag::Variable& p = params[i].var;
    if (fresh) {
      slot.push_back(p.has_grad() ? p.grad()
                                  : Tensor::zeros(p.value().shape()));
    } else if (p.has_grad()) {
      Tensor& acc = slot[i];
      const Tensor& g = p.grad();
      for (std::size_t j = 0; j < acc.size(); ++j) {
        acc.data()[j] += g.data()[j];
      }
    }
    p.zero_grad();
  }
}

void ExpertWorker::fold_staged(const ExpertKey& key,
                               nn::SwiGLUExpert& expert) {
  const auto it = staged_.find(key);
  if (it == staged_.end()) return;
  std::vector<nn::Parameter> params = expert.trainable_parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor total;
    for (auto& [source, grads] : it->second) {
      if (total.size() == 0) {
        total = std::move(grads[i]);
      } else {
        for (std::size_t j = 0; j < total.size(); ++j) {
          total.data()[j] += grads[i].data()[j];
        }
      }
    }
    if (total.size() > 0) params[i].var.set_grad(std::move(total));
  }
}

void ExpertWorker::run_loop(const std::string& tag) {
  while (true) {
    auto maybe = inbox_->receive();
    if (!maybe.has_value()) break;  // channel closed
    // Drain whatever else already queued up behind it: consecutive compute
    // requests inside the batch become parallel tasks on the shared pool
    // while control traffic keeps its strict arrival-order handling.
    std::vector<comm::Message> batch;
    batch.push_back(std::move(*maybe));
    while (auto more = inbox_->try_receive()) {
      batch.push_back(std::move(*more));
    }
    if (!process_batch(std::move(batch), tag)) return;
  }
}

bool ExpertWorker::handle_forward_run(std::vector<comm::Message>& run) {
  // Serial semantics on a missing expert: every request before it completes
  // and replies, then the failed lookup kills the worker. Truncate the run at
  // the first unhosted expert, compute the valid prefix, then let
  // require_hosted raise for the offender.
  std::size_t valid = run.size();
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (!store_->contains({run[i].layer, run[i].expert})) {
      valid = i;
      break;
    }
  }
  // Pin serially on the worker thread, in arrival order — on a bounded store
  // this is where cold experts page in, and arrival order makes the paging
  // sequence deterministic. Each request holds its own pin until backward
  // retires it (pins nest for repeated experts).
  std::vector<nn::SwiGLUExpert*> experts;
  experts.reserve(valid);
  for (std::size_t i = 0; i < valid; ++i) {
    experts.push_back(
        store_->pin({run[i].layer, run[i].expert}).expert.get());
  }
  struct Slot {
    ag::Variable x;
    ag::Variable y;
    comm::Message reply;
  };
  std::vector<Slot> slots(valid);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(valid);
  for (std::size_t i = 0; i < valid; ++i) {
    // Forwards only read expert weights, and each task owns its own request
    // payload and slot, so distinct requests are data-race free even when
    // they hit the same expert.
    tasks.push_back([this, &run, &slots, &experts, i] {
      comm::Message& msg = run[i];
      Slot& s = slots[i];
      nn::SwiGLUExpert& expert = *experts[i];
      s.x = ag::Variable::leaf(std::move(msg.payload), /*requires_grad=*/true);
      s.y = expert.forward(s.x);
      comm::Message reply;
      reply.type = comm::MessageType::kExpertForwardResult;
      reply.request_id = msg.request_id;
      reply.layer = msg.layer;
      reply.expert = msg.expert;
      reply.step = msg.step;
      // Replies to fragments are fragments of the merged result: the echo
      // keeps the broker's header-once-per-transfer accounting symmetric.
      reply.chunk_index = msg.chunk_index;
      reply.chunk_count = msg.chunk_count;
      reply.payload = codec_.apply(s.y.value());
      codec_.stamp(reply);
      s.reply = std::move(reply);
    });
  }
  util::ThreadPool::global().run(tasks);
  // Bookkeeping and replies stay on the worker thread, in arrival order, so
  // the master observes exactly the serial reply sequence.
  for (std::size_t i = 0; i < valid; ++i) {
    const ExpertKey key{run[i].layer, run[i].expert};
    const auto [it, inserted] = pending_.emplace(
        run[i].request_id,
        PendingRequest{key, experts[i], slots[i].x, slots[i].y});
    // A re-executed request (reply cache evicted after a lost reply) found
    // its original tape still pending: the original keeps its pin, this
    // execution's pin is surplus.
    if (!inserted) store_->unpin(key);
    ++requests_served_;
    if (!reply_and_cache(run[i], std::move(slots[i].reply))) {
      return false;
    }
  }
  if (valid < run.size()) {
    require_hosted({run[valid].layer, run[valid].expert});
  }
  return true;
}

bool ExpertWorker::handle_backward_run(std::vector<comm::Message>& run) {
  // Same truncation contract as forward runs, for unknown request ids.
  std::size_t valid = run.size();
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (pending_.count(run[i].request_id) == 0) {
      valid = i;
      break;
    }
  }
  // Fragment trains (the master's VELA_OVERLAP dispatch pipeline) assemble
  // in arrival order and backpropagate once — through one full-batch tape —
  // when their last fragment lands; a duplicate fragment of an incomplete
  // train is simply ignored (the retransmission that completes it is the one
  // that matters). Unfragmented messages keep the grouped-parallel path
  // below. The master serializes backward round trips, so a run never mixes
  // the two in practice; handling both keeps the contract local.
  std::vector<std::size_t> plain;
  plain.reserve(valid);
  for (std::size_t i = 0; i < valid; ++i) {
    comm::Message& msg = run[i];
    if (msg.chunk_count <= 1) {
      plain.push_back(i);
      continue;
    }
    const std::uint64_t base = msg.request_id - msg.chunk_index;
    PartialTrain& train = partial_backward_[base];
    train.chunk_count = msg.chunk_count;
    const std::size_t chunk = msg.chunk_index;
    if (!train.fragments.emplace(chunk, std::move(msg)).second) continue;
    if (train.fragments.size() == train.chunk_count) {
      PartialTrain done = std::move(train);
      partial_backward_.erase(base);
      if (!stitched_backward(base, std::move(done))) return false;
    }
  }
  struct Slot {
    PendingRequest req;
    comm::Message reply;
  };
  std::vector<Slot> slots(valid);
  // Group by expert: backwards for the same expert accumulate into the same
  // LoRA gradient buffers (and staging slots), so they run sequentially
  // inside one task (in arrival order — the serial accumulation order);
  // distinct experts touch disjoint parameter nodes and run as parallel
  // tasks. std::map keys the groups in fixed expert-id order.
  std::map<ExpertKey, std::vector<std::size_t>> groups;
  const bool staging = lanes_.size() > 1;
  for (const std::size_t i : plain) {
    auto it = pending_.find(run[i].request_id);
    slots[i].req = std::move(it->second);
    pending_.erase(it);
    groups[slots[i].req.key].push_back(i);
    // Staging slots are created here: map bookkeeping is not thread-safe.
    if (staging) staged_[slots[i].req.key][run[i].source];
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(groups.size());
  for (auto& [key, indices] : groups) {
    auto* staged = staging ? &staged_.at(key) : nullptr;
    tasks.push_back([this, &run, &slots, &indices = indices, staged] {
      std::vector<nn::Parameter> params;
      if (staged != nullptr) {
        params = slots[indices.front()].req.expert->trainable_parameters();
      }
      for (const std::size_t i : indices) {
        comm::Message& msg = run[i];
        Slot& s = slots[i];
        // Resume backpropagation: expert LoRA gradients accumulate locally;
        // only the input gradient returns to the master.
        ag::backward_from(s.req.output, msg.payload);
        if (staged != nullptr) stage_grads(staged->at(msg.source), params);
        comm::Message reply;
        reply.type = comm::MessageType::kExpertBackwardResult;
        reply.request_id = msg.request_id;
        reply.layer = msg.layer;
        reply.expert = msg.expert;
        reply.step = msg.step;
        reply.payload = codec_.apply(s.req.input.grad());
        codec_.stamp(reply);
        s.reply = std::move(reply);
      }
    });
  }
  util::ThreadPool::global().run(tasks);
  for (const std::size_t i : plain) {
    // The gradients landed in the (still pinned) expert's parameters; the
    // tape is retired, so the request's pin can go.
    store_->unpin(slots[i].req.key);
    if (!reply_and_cache(run[i], std::move(slots[i].reply))) {
      return false;
    }
  }
  VELA_CHECK_MSG(valid == run.size(),
                 "backward for unknown request " << run[valid].request_id);
  return true;
}

bool ExpertWorker::stitched_backward(std::uint64_t base_id,
                                     PartialTrain train) {
  // The per-chunk forward tapes are discarded and the forward recomputed on
  // the concatenated batch: the expert kernels are row-local, so the
  // recomputation reproduces the chunk outputs bit-for-bit, and running ONE
  // backward over the full batch keeps the LoRA gradient accumulation order
  // — and with it every low-order bit of the weights — identical to the
  // unchunked exchange (per-chunk backwards would sum partial dWs in a
  // different order).
  const comm::Message& first = train.fragments.begin()->second;
  const ExpertKey key{first.layer, first.expert};
  std::vector<Tensor> xs, dys;
  xs.reserve(train.chunk_count);
  dys.reserve(train.chunk_count);
  for (auto& [chunk, msg] : train.fragments) {
    auto it = pending_.find(base_id + chunk);
    VELA_CHECK_MSG(it != pending_.end(),
                   "backward fragment for unknown request " << base_id + chunk);
    VELA_CHECK_MSG(it->second.key.layer == key.layer &&
                       it->second.key.expert == key.expert,
                   "fragment train spans experts");
    xs.push_back(it->second.input.value());
    dys.push_back(std::move(msg.payload));
  }
  require_hosted(key);
  store::Pinned pinned(*store_, key);
  nn::SwiGLUExpert& expert = pinned.expert();
  ag::Variable in =
      ag::Variable::leaf(ops::concat_rows(xs), /*requires_grad=*/true);
  ag::Variable out = expert.forward(in);
  ag::backward_from(out, ops::concat_rows(dys));
  if (lanes_.size() > 1) {
    std::vector<nn::Parameter> params = expert.trainable_parameters();
    stage_grads(staged_[key][first.source], params);
  }
  const Tensor& dx = in.grad();
  std::size_t at = 0;
  std::size_t c = 0;
  for (auto& [chunk, msg] : train.fragments) {
    const std::size_t rows = xs[c].rows();
    comm::Message reply;
    reply.type = comm::MessageType::kExpertBackwardResult;
    reply.request_id = msg.request_id;
    reply.layer = msg.layer;
    reply.expert = msg.expert;
    reply.step = msg.step;
    reply.chunk_index = msg.chunk_index;
    reply.chunk_count = msg.chunk_count;
    Tensor slice = ops::slice_rows(dx, at, rows);
    reply.payload =
        codec_.transforms ? codec_.apply(slice) : std::move(slice);
    codec_.stamp(reply);
    at += rows;
    ++c;
    // Retire the fragment's pending tape and its pin.
    pending_.erase(msg.request_id);
    store_->unpin(key);
    if (!reply_and_cache(msg, std::move(reply))) return false;
  }
  return true;
}

bool ExpertWorker::process_batch(std::vector<comm::Message> batch,
                                 const std::string& tag) {
  std::size_t i = 0;
  while (i < batch.size()) {
    comm::Message msg = std::move(batch[i]);
    ++i;

    // Corrupted in flight: drop; the master times out and retransmits.
    if (!msg.checksum_ok()) {
      ++corrupt_dropped_;
      VELA_LOG_DEBUG(tag) << "dropping corrupted " << msg.to_string();
      continue;
    }
    // The source names the reply lane. On a remote lane it comes from
    // outside the process, so a source without a lane is a protocol error.
    VELA_CHECK_MSG(msg.source < lanes_.size(),
                   "request from source " << msg.source << " but only "
                                          << lanes_.size() << " reply lanes");
    // Already served (duplicate fault or master retransmission after a lost
    // reply): replay the cached reply, do not re-execute.
    if (auto it = reply_cache_.find(dedupe_key(msg)); it != reply_cache_.end()) {
      ++duplicates_replayed_;
      if (!lanes_[msg.source]->send(comm::Message(it->second))) {
        VELA_LOG_ERROR(tag) << "reply lane gone while replaying reply; "
                               "terminating";
        inbox_->close();
        return false;
      }
      continue;
    }

    // A run of compute requests: extend it with same-type, clean,
    // not-yet-served messages from valid sources from the rest of the batch
    // (a (type, id) pair repeated within the batch breaks the run so the
    // second copy hits the reply cache, exactly as it would serially).
    if (msg.type == comm::MessageType::kExpertForward ||
        msg.type == comm::MessageType::kExpertBackward) {
      std::vector<comm::Message> run;
      run.push_back(std::move(msg));
      while (i < batch.size() && batch[i].type == run.front().type &&
             batch[i].checksum_ok() && batch[i].source < lanes_.size() &&
             reply_cache_.find(dedupe_key(batch[i])) == reply_cache_.end() &&
             std::none_of(run.begin(), run.end(),
                          [&](const comm::Message& m) {
                            return dedupe_key(m) == dedupe_key(batch[i]);
                          })) {
        run.push_back(std::move(batch[i]));
        ++i;
      }
      const bool ok = run.front().type == comm::MessageType::kExpertForward
                          ? handle_forward_run(run)
                          : handle_backward_run(run);
      if (!ok) {
        VELA_LOG_ERROR(tag) << "reply channel closed; worker terminating";
        inbox_->close();
        return false;
      }
      continue;
    }

    const ExpertKey key{msg.layer, msg.expert};
    bool sent = true;
    // Control-plane dispatch only: kExpertForward/kExpertBackward were
    // consumed by the run-batching branch above, and the *Result/*Done/
    // kExpertState/kExpertSnapshot/kProbeAck/kAllReduceChunk variants are
    // replies this worker SENDS, never receives; the default: abort below
    // catches any of them arriving by mistake.
    // vela-analyze: allow(partial-dispatch)
    switch (msg.type) {
      case comm::MessageType::kOptimizerStep: {
        // Forward-only passes (profiling) leave tapes that never receive a
        // backward; the step boundary retires them (and their pins).
        if (!pending_.empty()) {
          VELA_LOG_DEBUG(tag) << "dropping " << pending_.size()
                              << " forward-only tapes at step boundary";
        }
        release_pending();
        partial_backward_.clear();
        // A scalar payload carries a scheduled learning rate: local expert
        // optimizers follow the master's LR schedule. (Paged-out experts
        // catch up when their page-in below restores / this loop sets it.)
        const bool has_lr = msg.payload.size() == 1;
        const auto keys = store_->keys();
        if (!store_->bounded()) {
          // Everything is resident: per-expert AdamW states are disjoint, so
          // the steps run as parallel tasks; keys() is ascending, so task
          // order is fixed expert-id order regardless of pool size.
          std::vector<std::pair<ExpertKey, store::ExpertSlot*>> stepped;
          stepped.reserve(keys.size());
          for (const auto& k : keys) {
            store::ExpertSlot& slot = store_->pin(k);
            if (slot.optimizer == nullptr) {
              store_->unpin(k);
              continue;
            }
            if (has_lr) slot.optimizer->set_learning_rate(msg.payload[0]);
            stepped.emplace_back(k, &slot);
          }
          std::vector<std::function<void()>> tasks;
          tasks.reserve(stepped.size());
          for (const auto& [k, slot] : stepped) {
            tasks.push_back([this, &k = k, slot = slot] {
              fold_staged(k, *slot->expert);
              slot->optimizer->step();
              slot->optimizer->zero_grad();
            });
          }
          util::ThreadPool::global().run(tasks);
          for (const auto& [k, slot] : stepped) store_->unpin(k);
        } else {
          // Bounded store: step serially in key order, one resident expert
          // at a time, so the pool never exceeds its budget. Per-expert
          // updates are independent, so the result is bit-identical to the
          // parallel path.
          for (const auto& k : keys) {
            store::Pinned pinned(*store_, k);
            if (pinned.optimizer() != nullptr) {
              fold_staged(k, pinned.expert());
              if (has_lr) pinned.optimizer()->set_learning_rate(msg.payload[0]);
              pinned.optimizer()->step();
              pinned.optimizer()->zero_grad();
            }
          }
        }
        staged_.clear();
        comm::Message reply;
        reply.type = comm::MessageType::kOptimizerStepDone;
        reply.request_id = msg.request_id;
        reply.step = msg.step;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kFetchExpert:
      case comm::MessageType::kQueryExpert: {
        require_hosted(key);
        comm::Message reply;
        reply.type = comm::MessageType::kExpertState;
        reply.request_id = msg.request_id;
        reply.layer = msg.layer;
        reply.expert = msg.expert;
        if (spec_.lora.enabled) {
          store::Pinned pinned(*store_, key);
          reply.payload = pack_trainable(pinned.expert());
        }
        reply.wire_bits = spec_.wire_bits;
        if (msg.type == comm::MessageType::kFetchExpert) store_->erase(key);
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kSnapshotExpert: {
        require_hosted(key);
        comm::Message reply;
        reply.type = comm::MessageType::kExpertSnapshot;
        reply.request_id = msg.request_id;
        reply.layer = msg.layer;
        reply.expert = msg.expert;
        if (spec_.lora.enabled) {
          store::Pinned pinned(*store_, key);
          reply.payload =
              pack_full_state(pinned.expert(), pinned.optimizer());
        }
        reply.wire_bits = spec_.wire_bits;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kRestoreExpert: {
        // Recovery install (or standby refresh when already hosted): frozen
        // bases re-derive from the seed; the payload (when present) restores
        // adapters + optimizer moments.
        if (!store_->contains(key)) install_expert(key, nullptr);
        if (msg.payload.size() > 0) {
          store::Pinned pinned(*store_, key);
          unpack_full_state(msg.payload, pinned.expert(), pinned.optimizer());
        }
        comm::Message reply;
        reply.type = comm::MessageType::kRestoreExpertDone;
        reply.request_id = msg.request_id;
        reply.layer = msg.layer;
        reply.expert = msg.expert;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kLoadExpertState: {
        require_hosted(key);
        {
          store::Pinned pinned(*store_, key);
          unpack_trainable(msg.payload, pinned.expert());
        }
        comm::Message reply;
        reply.type = comm::MessageType::kLoadExpertStateDone;
        reply.request_id = msg.request_id;
        reply.layer = msg.layer;
        reply.expert = msg.expert;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kInstallExpert: {
        if (msg.payload.size() > 0) {
          install_expert(key, &msg.payload);
        } else {
          install_expert(key, nullptr);
        }
        comm::Message reply;
        reply.type = comm::MessageType::kInstallExpertDone;
        reply.request_id = msg.request_id;
        reply.layer = msg.layer;
        reply.expert = msg.expert;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kProbe: {
        comm::Message reply;
        reply.type = comm::MessageType::kProbeAck;
        reply.request_id = msg.request_id;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kStorePriorities: {
        // Locality scores from the placement optimizer: payload is the
        // flattened L×E probability matrix, dims in the layer/expert fields.
        const std::size_t layers = msg.layer;
        const std::size_t experts = msg.expert;
        VELA_CHECK_MSG(msg.payload.size() == layers * experts,
                       "store priorities payload is " << msg.payload.size()
                                                      << " floats for a "
                                                      << layers << "x"
                                                      << experts << " matrix");
        std::vector<std::pair<ExpertKey, float>> priorities;
        priorities.reserve(layers * experts);
        for (std::size_t l = 0; l < layers; ++l) {
          for (std::size_t e = 0; e < experts; ++e) {
            priorities.emplace_back(
                ExpertKey{static_cast<std::uint32_t>(l),
                          static_cast<std::uint32_t>(e)},
                msg.payload[l * experts + e]);
          }
        }
        store_->set_priorities(priorities);
        comm::Message reply;
        reply.type = comm::MessageType::kStorePrioritiesDone;
        reply.request_id = msg.request_id;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kPrefetchExperts: {
        // Fire-and-forget dispatch hint: page the named experts in ahead of
        // the forwards queued behind this message. No reply, no cache —
        // duplicates just re-run an idempotent warm-up.
        std::vector<ExpertKey> keys;
        keys.reserve(msg.payload.size());
        for (std::size_t e = 0; e < msg.payload.size(); ++e) {
          keys.push_back(ExpertKey{
              msg.layer, static_cast<std::uint32_t>(msg.payload[e])});
        }
        store_->prefetch(keys);
        break;
      }
      case comm::MessageType::kAbortStep: {
        // Mid-step failure recovery: discard the in-flight step entirely —
        // pending tapes and any expert gradients accumulated by partial
        // backwards (resident ones now, spilled ones at their next page-in,
        // staged ones with their slots) — so the retried step starts from
        // clean state.
        if (!pending_.empty()) {
          VELA_LOG_DEBUG(tag) << "abort: dropping " << pending_.size()
                              << " in-flight tapes";
        }
        release_pending();
        partial_backward_.clear();
        staged_.clear();
        store_->zero_all_grads();
        comm::Message reply;
        reply.type = comm::MessageType::kAbortStepDone;
        reply.request_id = msg.request_id;
        sent = reply_and_cache(msg, std::move(reply));
        break;
      }
      case comm::MessageType::kCrash: {
        // Injected fault: simulate an abrupt process death. Both channel
        // directions die and all hosted state is lost — including every
        // paged image, which is why a respawned worker's store starts empty.
        VELA_LOG_ERROR(tag) << "injected crash: simulating worker death";
        store_->clear();
        pending_.clear();
        partial_backward_.clear();
        staged_.clear();
        close_lanes();
        inbox_->close();
        return false;
      }
      case comm::MessageType::kShutdown: {
        VELA_LOG_DEBUG(tag) << "shutdown";
        return false;
      }
      default:
        VELA_CHECK_MSG(false, "worker received unexpected message "
                                  << msg.to_string());
    }
    if (!sent) {
      // The master-side channel is gone (severed link or master teardown):
      // a structured death instead of silently computing into the void.
      VELA_LOG_ERROR(tag) << "reply channel closed; worker terminating";
      inbox_->close();
      return false;
    }
  }
  return true;
}

}  // namespace vela::core
