// Metric names and units printed by vela_bench; they must match
// BENCHMARK.json (the self-test compares the two).
#pragma once

#include <string>
#include <vector>

namespace vela_bench {

struct MetricDef {
  std::string name;
  std::string unit;
};

// Printed with --trace 0 (tracing off).
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"tokens_per_s", "tok/s"},
      {"step_ms_p50", "ms"},
      {"step_ms_p90", "ms"},
      {"setup_s", "s"},
      {"cpu_ms_per_step", "ms"},
      {"external_mb_per_node_step", "MB"},
      {"modeled_step_ms", "ms"},
      {"train_loss_mean", "nats"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

// Printed with --trace 1, derived from the traced run's spans. A layer a
// workload leaves idle reports 0.
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = {
      {"tensor.matmul_us", "us"},
      {"tensor.matmul_nt_us", "us"},
      {"tensor.matmul_tn_us", "us"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"tensor.softmax_rows_us", "us"},
      {"tensor.topk_rows_us", "us"},
      {"tensor.matmul_nt_q8_us", "us"},
      {"nn.rmsnorm_us", "us"},
      {"nn.adamw_step_ms", "ms"},
      {"util.pool_speedup", "x"},
      {"autograd.backward_ms", "ms"},
      {"autograd.nodes", "count"},
      {"moe.gate_forward_us", "us"},
      {"moe.assignments_per_step", "count"},
      {"model.dense_forward_ms", "ms"},
      {"model.dense_step_ms", "ms"},
      {"data.batch_wait_ms", "ms"},
      {"core.construct_ms", "ms"},
      {"core.profile_ms", "ms"},
      {"core.step_ms", "ms"},
      {"core.dist_overhead_ms", "ms"},
      {"placement.optimize_ms", "ms"},
      {"placement.lp_solve_ms", "ms"},
      {"placement.lp_iterations", "count"},
      {"ep.construct_ms", "ms"},
      {"ep.step_ms", "ms"},
      {"comm.encode_frame_us", "us"},
      {"comm.decode_frame_us", "us"},
      {"comm.frame_bytes_per_wire_byte", "ratio"},
      {"comm.inproc_rtt_us", "us"},
      {"comm.socket_rtt_us", "us"},
      {"comm.external_bytes_per_step", "B"},
      {"comm.total_bytes_per_step", "B"},
      {"store.page_in_mb_per_step", "MB"},
      {"store.page_out_mb_per_step", "MB"},
      {"store.hit_ratio", "ratio"},
      {"store.page_in_us", "us"},
      {"store.page_out_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

}  // namespace vela_bench
