#include "workload.h"

#include "core/step_simulator.h"
#include "model/router_planting.h"

namespace vela_bench {

using namespace vela;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(2);
    w[0].name = "vela_wikitext";
    w[0].ledger_check = true;
    w[0].dense_check = true;
    w[0].reference_check = true;

    w[1].name = "ep_wikitext";
    w[1].ep = true;
    w[1].setups = 9;  // each set-up is ~0.1 s
    w[1].dense_check = true;
    return w;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

data::CorpusConfig corpus_config() {
  const std::size_t vocab = model::ModelConfig::tiny_mistral().vocab;
  return data::CorpusConfig::wikitext_like(vocab, kDomains);
}

std::uint64_t sum_assignments(const std::vector<moe::RoutePlan>& plans) {
  std::uint64_t n = 0;
  for (const auto& p : plans) n += p.total_assignments();
  return n;
}

}  // namespace

Inputs::Inputs(std::uint64_t s)
    : corpus(corpus_config(), kCorpusSeed),
      dataset(corpus.make_dataset(kDatasetSeqs, kSeqLen)),
      seed(s) {}

core::VelaSystemConfig vela_config(const Workload& wl,
                                   const std::string& store_dir) {
  core::VelaSystemConfig cfg;
  cfg.model = model::ModelConfig::tiny_mistral();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = kModelSeed;
  cfg.transport = wl.transport;
  cfg.overlap_chunks = 0;
  cfg.expert_budget = wl.expert_budget;
  cfg.store_dir = store_dir;
  cfg.store_dtype = store::StoreDtype::kFp32;
  return cfg;
}

ep::EpRuntimeConfig ep_config(const Workload& wl) {
  ep::EpRuntimeConfig cfg;
  cfg.model = model::ModelConfig::tiny_mistral();
  cfg.cluster = cluster::ClusterConfig::paper_testbed();
  cfg.seed = kModelSeed;
  cfg.transport = wl.transport;
  return cfg;
}

Subject::Subject(const Workload& wl, const Inputs& in,
                 const std::string& store_dir, Tracer* tracer)
    : cfg_(vela_config(wl, store_dir)) {
  if (wl.ep) {
    auto s = tracer->scope("ep.construct");
    ep_ = std::make_unique<ep::EpRuntime>(ep_config(wl), &in.corpus);
    return;
  }
  {
    auto s = tracer->scope("core.construct");
    vela_ = std::make_unique<core::VelaSystem>(cfg_, &in.corpus);
  }
  {
    auto s = tracer->scope("core.profile");
    vela_->profile(in.dataset, kBatch);
  }
  auto s = tracer->scope("placement.optimize");
  vela_->optimize_placement(static_cast<double>(kBatch * (kSeqLen - 1)));
  s.arg("lp_iterations",
        static_cast<double>(vela_->placement_report().lp_iterations));
}

StepOut Subject::step(const Batch& batch, bool want_model) {
  StepOut out;
  const comm::TrafficMeter& meter =
      ep_ ? ep_->meter() : vela_->master().meter();
  const std::uint64_t ext0 = meter.lifetime_external_bytes();
  const std::uint64_t tot0 = meter.lifetime_total_bytes();
  if (ep_) {
    const ep::EpStepReport r = ep_->train_step(batch);
    out.loss = r.loss;
    out.external_mb_per_node = r.external_mb_per_node;
    out.modeled_step_s = r.step_seconds;
    // Every shard routes an equal share of the batch; shard 0 is one share.
    out.assignments =
        sum_assignments(ep_->replica().last_plans()) * ep_->num_shards();
  } else {
    const core::StepReport r = vela_->train_step(batch);
    out.loss = r.loss;
    out.external_mb_per_node = r.external_mb_per_node;
    out.modeled_step_s = r.step_seconds;
    const auto plans = vela_->model().last_plans();
    out.assignments = sum_assignments(plans);
    if (want_model) {
      core::VelaTrafficModelConfig tm;
      tm.bytes_per_token = cfg_.model.model_dim * cfg_.wire_bits / 8;
      core::VelaTrafficModel traffic(&vela_->topology(), tm);
      out.modeled_external_bytes = traffic.external_bytes(
          traffic.account_step(plans, vela_->master().placement()));
    }
  }
  out.external_bytes = meter.lifetime_external_bytes() - ext0;
  out.total_bytes = meter.lifetime_total_bytes() - tot0;
  return out;
}

std::uint64_t Subject::control_bytes() const {
  if (ep_) return 0;
  const auto& topo = vela_->topology();
  std::uint64_t cross = 0;
  for (std::size_t w = 0; w < topo.num_workers(); ++w) {
    if (topo.worker_node(w) != topo.master_node()) ++cross;
  }
  return cross * 2 * comm::Message::kHeaderBytes;
}

DenseTwin::DenseTwin(const core::VelaSystemConfig& cfg,
                     const data::SyntheticCorpus& corpus)
    : backend(cfg.model.num_layers, cfg.model.num_experts,
              cfg.model.model_dim, cfg.model.hidden_dim, cfg.model.lora,
              cfg.seed),
      rng(cfg.seed),
      model(cfg.model, &backend, rng) {
  model::plant_locality(model, corpus, model::PlantingConfig{});
  auto params = model.trainable_parameters();
  for (const auto& p : backend.trainable_parameters()) params.push_back(p);
  optimizer = std::make_unique<nn::AdamW>(params, cfg.adamw);
}

float DenseTwin::loss(const Batch& batch) {
  return model.loss_batch(batch).value()[0];
}

}  // namespace vela_bench
