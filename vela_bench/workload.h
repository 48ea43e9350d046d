// The benchmark's workloads and the system under test, built only through
// the library's public API (core::VelaSystem, ep::EpRuntime).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport.h"
#include "comm/wire_codec.h"
#include "core/vela_system.h"
#include "data/corpus.h"
#include "ep/runtime.h"
#include "moe/moe_block.h"
#include "nn/optimizer.h"
#include "support.h"

namespace vela_bench {

using Batch = std::vector<std::vector<std::size_t>>;

// Shared by every workload: the paper's 3×2 testbed fine-tuning tiny_mistral
// on batches of 6 sequences × 16 tokens.
inline constexpr std::size_t kBatch = 6;
inline constexpr std::size_t kSeqLen = 16;
inline constexpr std::size_t kDatasetSeqs = 60;
inline constexpr std::size_t kDomains = 6;
// The model (seed 7), the corpus it is planted for and the fine-tuning
// dataset drawn from it (seed 19) are fixed, as a checkpoint and a task
// would be; --seed orders the dataset into batches. Per-step routing,
// traffic and paging follow the batch order; the placement, which is
// profiled from the whole dataset, does not.
inline constexpr std::uint64_t kModelSeed = 7;
inline constexpr std::uint64_t kCorpusSeed = 19;
// Fixed correctness prefix, run in full before timing on every run: one
// epoch, so train_loss_mean covers every dataset sequence once.
inline constexpr std::size_t kPrefixSteps = kDatasetSeqs / kBatch;
// Thread-pool lanes, the same on every workload: at 4 lanes on a shared
// 4-core host the vela_wikitext median swung 2x between runs, at 1 lane
// about ±6%. util.pool_speedup measures what more lanes would give.
inline constexpr std::size_t kLanes = 1;
// Resident-expert budget per worker of the paged reference run and the
// store replay: 4 of the about 14 experts a worker hosts.
inline constexpr long long kPagedBudget = 4;

struct Workload {
  std::string name;
  bool ep = false;  // EP baseline instead of VELA
  vela::comm::TransportKind transport = vela::comm::TransportKind::kInProc;
  long long expert_budget = 0;  // 0 = unbounded InMemoryStore
  std::size_t setups = 3;       // set-ups per run (median → setup_s)
  bool ledger_check = false;    // per-step byte ledger vs model
  bool dense_check = false;     // step-0 loss vs dense twin
  bool reference_check = false;  // prefix bit-identical to socket/paged
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// The dataset the profiler pre-passes and the trainer iterates, and the
// seed of its batch order.
struct Inputs {
  explicit Inputs(std::uint64_t seed);
  vela::data::SyntheticCorpus corpus;
  Batch dataset;
  std::uint64_t seed;
};

vela::core::VelaSystemConfig vela_config(const Workload& wl,
                                         const std::string& store_dir);
vela::ep::EpRuntimeConfig ep_config(const Workload& wl);

struct StepOut {
  float loss = 0.0f;
  double external_mb_per_node = 0.0;
  double modeled_step_s = 0.0;
  std::uint64_t external_bytes = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t assignments = 0;
  std::uint64_t modeled_external_bytes = 0;  // VELA with want_model only
};

// One built system (VELA or EP) ready to train. Construction is the timed
// set-up: VELA constructs, profiles and solves + migrates the LP placement;
// EP constructs. Spans bracket each public call when `tracer` is armed.
class Subject {
 public:
  Subject(const Workload& wl, const Inputs& in, const std::string& store_dir,
          Tracer* tracer);

  StepOut step(const Batch& batch, bool want_model);
  // Header-only control round trips per step that the traffic model leaves
  // out: one per cross-node worker (VELA).
  std::uint64_t control_bytes() const;

  bool is_ep() const { return ep_ != nullptr; }
  vela::core::VelaSystem* vela() { return vela_.get(); }
  const vela::core::VelaSystemConfig& config() const { return cfg_; }

 private:
  vela::core::VelaSystemConfig cfg_;
  std::unique_ptr<vela::core::VelaSystem> vela_;
  std::unique_ptr<vela::ep::EpRuntime> ep_;
};

// Single-process twin of the distributed system, built exactly as in
// tests/test_equivalence.cpp: same seeds, dense local experts, planted
// locality, one AdamW over backbone + expert adapters. It is the plain
// single-worker baseline and the step-0 loss reference.
struct DenseTwin {
  explicit DenseTwin(const vela::core::VelaSystemConfig& cfg,
                     const vela::data::SyntheticCorpus& corpus);
  float loss(const Batch& batch);

  vela::moe::LocalExpertBackend backend;
  vela::Rng rng;
  vela::model::MoETransformer model;
  std::unique_ptr<vela::nn::AdamW> optimizer;
};

}  // namespace vela_bench
