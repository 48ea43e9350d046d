#include "replays.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "autograd/variable.h"
#include "comm/frame.h"
#include "comm/message.h"
#include "core/profiler.h"
#include "nn/norm.h"
#include "placement/locality_aware.h"
#include "store/paged_store.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "util/thread_pool.h"

namespace vela_bench {

using namespace vela;

namespace {

constexpr std::size_t kSpansPerReplay = 25;

// Tokens one expert group carries on average: batch tokens × k / E.
std::size_t expert_group_rows(const model::ModelConfig& m) {
  return kBatch * kSeqLen * m.top_k / m.num_experts;
}

// Keeps kernel results observable so the calls cannot be elided.
volatile float g_sink = 0.0f;

void sink(const Tensor& t) {
  if (t.size() > 0) g_sink = g_sink + t.data()[0];
}

// One untimed warm-up, then kSpansPerReplay spans, each running `body`
// reps times; a body makes `calls` calls of the measured function ("reps"
// = calls per span).
void timed(Tracer& tr, const std::string& name, std::size_t reps,
           const std::function<void()>& body, std::uint64_t parent,
           std::size_t calls = 1, double flops_per_body = 0.0) {
  body();
  for (std::size_t s = 0; s < kSpansPerReplay; ++s) {
    auto span = tr.scope(name, parent);
    for (std::size_t r = 0; r < reps; ++r) body();
    span.arg("reps", static_cast<double>(reps * calls));
    if (flops_per_body > 0.0) {
      span.arg("flops", flops_per_body * static_cast<double>(reps));
    }
  }
}

}  // namespace

void replay_placement(Subject& subject, Tracer& tr) {
  core::VelaSystem* vela = subject.vela();
  if (vela == nullptr || !vela->profiled_stats().has_value()) return;
  const auto& cfg = subject.config();
  const placement::PlacementProblem problem = core::build_placement_problem(
      vela->profiled_stats()->probability_matrix(), cfg.model,
      vela->topology(), static_cast<double>(kBatch * (kSeqLen - 1)),
      cfg.capacity_slack);
  const lp::LinearProgram program =
      placement::LocalityAwarePlacement::build_lp(problem);
  auto group = tr.scope("replay.placement");
  for (int r = 0; r < 5; ++r) {
    auto span = tr.scope("placement.lp_solve", group.id());
    const lp::LpSolution sol = lp::solve(program);
    span.arg("iterations", static_cast<double>(sol.iterations));
  }
}

void replay_store(Subject& subject,
                  const std::vector<std::vector<moe::RoutePlan>>& steps,
                  const std::string& store_dir, Tracer& tr) {
  core::VelaSystem* vela = subject.vela();
  const auto& cfg = subject.config();
  if (vela == nullptr || steps.empty()) return;
  const placement::Placement& placement = vela->master().placement();
  const auto& topo = vela->topology();
  // The busiest worker: the most hosted experts, lowest id on ties.
  std::size_t worker = 0;
  for (std::size_t w = 1; w < topo.num_workers(); ++w) {
    if (placement.experts_of(w).size() >
        placement.experts_of(worker).size()) {
      worker = w;
    }
  }
  const core::WorkerSpec spec =
      core::make_worker_spec(cfg, worker, topo.worker_node(worker));
  const comm::WireCodec codec = comm::WireCodec::resolve(
      spec.wire_dtype, spec.wire_bits, spec.quantize_wire, spec.q8_block);
  // The worker's own slot factory: seeded bases, q8 pack, fresh AdamW.
  const store::SlotFactory factory = [&spec, codec](const store::ExpertKey& k) {
    Rng rng(nn::expert_seed(spec.base_seed, k.layer, k.expert));
    store::ExpertSlot slot;
    slot.expert = std::make_unique<nn::SwiGLUExpert>(
        "layer" + std::to_string(k.layer) + ".expert" +
            std::to_string(k.expert),
        spec.model_dim, spec.hidden_dim, spec.lora, rng);
    if (codec.is_int8()) slot.expert->enable_q8_compute(codec.block);
    slot.optimizer = std::make_unique<nn::AdamW>(
        slot.expert->trainable_parameters(), spec.adamw);
    return slot;
  };
  store::StoreConfig scfg;
  scfg.budget = kPagedBudget;
  scfg.dir = store_dir;
  scfg.dtype = store::StoreDtype::kFp32;
  scfg.policy = store::EvictionPolicy::kLocality;

  std::vector<store::ExpertKey> hosted;
  for (const auto& [l, e] : placement.experts_of(worker)) {
    hosted.push_back({static_cast<std::uint32_t>(l),
                      static_cast<std::uint32_t>(e)});
  }
  std::sort(hosted.begin(), hosted.end());
  const Tensor prob = vela->profiled_stats()->probability_matrix();
  std::vector<std::pair<store::ExpertKey, float>> priorities;
  for (const auto& k : hosted) {
    priorities.emplace_back(k, prob.at(k.layer, k.expert));
  }

  auto group = tr.scope("replay.store");
  {
    // The worker's access order per step: a pin per routed expert group in
    // forward (blocks 0..L-1), held until its backward retires it (blocks
    // L-1..0), then the serial optimizer pass in key order.
    store::PagedStore s(scfg, factory);
    s.set_priorities(priorities);
    for (const auto& k : hosted) s.emplace(k);
    const store::StoreStats before = s.stats();
    auto span = tr.scope("store.replay", group.id());
    for (const auto& plans : steps) {
      std::vector<store::ExpertKey> pinned;
      for (std::size_t l = 0; l < plans.size(); ++l) {
        for (std::size_t e = 0; e < plans[l].expert_tokens.size(); ++e) {
          if (plans[l].expert_tokens[e].empty() ||
              placement.worker_of(l, e) != worker) {
            continue;
          }
          const store::ExpertKey key{static_cast<std::uint32_t>(l),
                                     static_cast<std::uint32_t>(e)};
          s.pin(key);
          pinned.push_back(key);
        }
      }
      for (auto it = pinned.rbegin(); it != pinned.rend(); ++it) s.unpin(*it);
      for (const auto& k : hosted) {
        s.pin(k);
        s.unpin(k);
      }
    }
    const store::StoreStats after = s.stats();
    span.arg("steps", static_cast<double>(steps.size()));
    span.arg("hits", static_cast<double>(after.hits - before.hits));
    span.arg("misses", static_cast<double>(after.misses - before.misses));
    span.arg("page_in_bytes",
             static_cast<double>(after.page_in_bytes - before.page_in_bytes));
    span.arg("page_out_bytes", static_cast<double>(after.page_out_bytes -
                                                   before.page_out_bytes));
  }
  const auto budget = static_cast<std::size_t>(kPagedBudget);
  if (hosted.size() > budget) {
    // Isolated paging: with `budget` experts pinned, pinning a spilled
    // expert can only page it in, and unpinning it can only page it out.
    store::PagedStore s(scfg, factory);
    std::vector<store::ExpertKey> keys(hosted.begin(),
                                       hosted.begin() + budget + 1);
    for (const auto& k : keys) s.emplace(k);  // evicts keys[0] (oldest)
    for (std::size_t i = 1; i < keys.size(); ++i) s.pin(keys[i]);
    for (int r = 0; r < 40; ++r) {
      {
        auto span = tr.scope("store.page_in", group.id());
        s.pin(keys[0]);
      }
      auto span = tr.scope("store.page_out", group.id());
      s.unpin(keys[0]);
    }
    for (std::size_t i = 1; i < keys.size(); ++i) s.unpin(keys[i]);
  }
}

void replay_dense(const Workload& wl, const Inputs& in, const Batch& batch,
                  Tracer& tr) {
  DenseTwin twin(vela_config(wl, ""), in.corpus);
  auto group = tr.scope("replay.dense");
  for (int r = 0; r < 8; ++r) {
    auto step = tr.scope("model.dense_step", group.id());
    twin.optimizer->zero_grad();
    ag::Variable loss;
    {
      auto span = tr.scope("model.dense_forward", step.id());
      loss = twin.model.loss_batch(batch);
    }
    {
      // Tape size: every node reachable from the loss.
      std::unordered_set<const ag::detail::Node*> seen;
      std::vector<const ag::detail::Node*> stack{loss.node().get()};
      while (!stack.empty()) {
        const ag::detail::Node* n = stack.back();
        stack.pop_back();
        if (!seen.insert(n).second) continue;
        for (const auto& p : n->parents) stack.push_back(p.get());
      }
      auto span = tr.scope("autograd.backward", step.id());
      ag::backward(loss);
      span.arg("nodes", static_cast<double>(seen.size()));
    }
    auto span = tr.scope("nn.adamw_step", step.id());
    twin.optimizer->step();
  }

  const auto& m = twin.model.config();
  Rng rng(in.seed);
  const ag::Variable x = ag::Variable::constant(
      ops::randn({kBatch * kSeqLen, m.model_dim}, rng));
  moe::TopKGate& gate = twin.model.block(0).gate();
  timed(tr, "moe.gate_forward", 50,
        [&] { sink(gate.forward(x).probs); }, group.id());
}

void replay_kernels(Tracer& tr) {
  const auto m = model::ModelConfig::tiny_mistral();
  const std::size_t tokens = kBatch * kSeqLen;
  const std::size_t rows = expert_group_rows(m);
  // (rows, inner, cols) of the step's GEMMs: expert up and down
  // projections on one expert group, an attention projection and the LM
  // head over the whole batch.
  struct Shape {
    std::size_t m, k, n;
  };
  const std::vector<Shape> shapes = {{rows, m.model_dim, m.hidden_dim},
                                     {rows, m.hidden_dim, m.model_dim},
                                     {tokens, m.model_dim, m.model_dim},
                                     {tokens, m.model_dim, m.vocab}};
  Rng rng(11);
  struct Operands {
    Tensor a_nk, b_km, b_mk, a_kn;
  };
  std::vector<Operands> ops_in;
  double flops = 0.0;
  for (const Shape& s : shapes) {
    ops_in.push_back(
        {ops::randn({s.m, s.k}, rng), ops::randn({s.k, s.n}, rng),
         ops::randn({s.n, s.k}, rng), ops::randn({s.k, s.m}, rng)});
    flops += 2.0 * static_cast<double>(s.m * s.k * s.n);
  }
  const std::size_t passes = 8;
  auto group = tr.scope("replay.tensor");
  const std::function<void()> run_nn = [&] {
    for (const auto& o : ops_in) sink(ops::matmul(o.a_nk, o.b_km));
  };
  const std::function<void()> run_nt = [&] {
    for (const auto& o : ops_in) sink(ops::matmul_nt(o.a_nk, o.b_mk));
  };
  const std::function<void()> run_tn = [&] {
    for (const auto& o : ops_in) sink(ops::matmul_tn(o.a_kn, o.b_km));
  };
  timed(tr, "tensor.matmul", passes, run_nn, group.id(), shapes.size(), flops);
  timed(tr, "tensor.matmul_nt", passes, run_nt, group.id(), shapes.size(),
        flops);
  timed(tr, "tensor.matmul_tn", passes, run_tn, group.id(), shapes.size(),
        flops);

  const Tensor vocab_logits = ops::randn({tokens, m.vocab}, rng);
  const Tensor gate_logits = ops::randn({tokens, m.num_experts}, rng);
  timed(tr, "tensor.softmax_rows", 50,
        [&] { sink(ops::softmax_rows(vocab_logits)); }, group.id());
  timed(tr, "tensor.topk_rows", 50,
        [&] { g_sink = g_sink + static_cast<float>(
                  ops::topk_rows(gate_logits, m.top_k)[0][0]); },
        group.id());
  nn::RMSNorm norm("bench.norm", m.model_dim);
  const ag::Variable h =
      ag::Variable::constant(ops::randn({tokens, m.model_dim}, rng));
  timed(tr, "nn.rmsnorm", 50, [&] { sink(norm.forward(h).value()); },
        group.id());

  // The int8 wire tier's expert GEMM, which neither workload runs.
  const Tensor x = ops::randn({rows, m.model_dim}, rng);
  const auto w = qgemm::pack(ops::randn({m.hidden_dim, m.model_dim}, rng));
  timed(tr, "tensor.matmul_nt_q8", 50,
        [&] { sink(qgemm::matmul_nt_q8(x, w)); }, group.id());

  // Pool speed-up on the same GEMM set: nproc lanes vs 1, interleaved.
  const std::size_t lanes = std::max<std::size_t>(
      1, static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  for (int r = 0; r < 6; ++r) {
    util::ThreadPool::set_global_threads(1);
    {
      auto span = tr.scope("util.pool_1lane", group.id());
      for (std::size_t p = 0; p < passes; ++p) run_nt();
    }
    util::ThreadPool::set_global_threads(lanes);
    auto span = tr.scope("util.pool_nlanes", group.id());
    span.arg("lanes", static_cast<double>(lanes));
    for (std::size_t p = 0; p < passes; ++p) run_nt();
  }
  util::ThreadPool::set_global_threads(kLanes);
}

void replay_comm(const Workload& wl, Tracer& tr) {
  const auto m = model::ModelConfig::tiny_mistral();
  const auto vc = vela_config(wl, "");
  const auto ec = ep_config(wl);
  const comm::WireCodec codec =
      wl.ep ? comm::WireCodec::resolve(ec.wire_dtype, ec.wire_bits, false,
                                       ec.q8_block)
            : comm::WireCodec::resolve(vc.wire_dtype, vc.wire_bits,
                                       vc.quantize_wire, vc.q8_block);
  Rng rng(13);
  comm::Message msg;
  msg.type = comm::MessageType::kExpertForward;
  msg.request_id = 1;
  msg.layer = 3;
  msg.expert = 2;
  msg.payload =
      codec.apply(ops::randn({expert_group_rows(m), m.model_dim}, rng));
  codec.stamp(msg);

  auto group = tr.scope("replay.comm");
  std::vector<std::uint8_t> frame = comm::encode_frame(msg);
  {
    auto span = tr.scope("comm.frame_size", group.id());
    span.arg("frame_bytes", static_cast<double>(frame.size()));
    span.arg("wire_bytes", static_cast<double>(msg.wire_size()));
  }
  timed(tr, "comm.encode_frame", 200,
        [&] { frame = comm::encode_frame(msg); }, group.id());
  comm::Message decoded;
  timed(tr, "comm.decode_frame", 200,
        [&] {
          if (!comm::decode_frame(frame, &decoded)) {
            throw std::runtime_error("decode_frame rejected its own frame");
          }
        },
        group.id());

  // Round trip over each transport kind: a → receive → b → receive, one
  // caller.
  for (const auto& [kind, name] :
       {std::pair{comm::TransportKind::kInProc, "comm.inproc_rtt"},
        std::pair{comm::TransportKind::kSocket, "comm.socket_rtt"}}) {
    auto a = comm::make_transport(kind);
    auto b = comm::make_transport(kind);
    timed(tr, name, 50,
          [&] {
            a->send(frame);
            auto there = a->receive();
            if (!there) throw std::runtime_error("transport closed");
            b->send(std::move(*there));
            auto back = b->receive();
            if (!back || back->size() != frame.size()) {
              throw std::runtime_error("transport lost the frame");
            }
          },
          group.id());
    a->close();
    b->close();
  }
}

}  // namespace vela_bench
