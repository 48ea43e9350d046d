// vela_bench — measured fine-tune benchmark (see README.md).
//
//   vela_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>]
//   vela_bench --list
//
// --trace 0: builds the system (median of several set-ups), runs the fixed
// correctness prefix, then a timed closed loop of train_step calls from this
// one caller thread, and prints the end-to-end metrics. --trace 1: one
// set-up, the same prefix, an interleaved traced/untraced loop, then the
// per-layer replays; prints the per-layer metrics and writes a Chrome trace.
// The last stdout line is the JSON result; everything else goes to stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "data/batch.h"
#include "metrics.h"
#include "replays.h"
#include "support.h"
#include "util/thread_pool.h"
#include "workload.h"

extern char** environ;

namespace vela_bench {
namespace {

using namespace vela;

// The tail rule may run the loop past --seconds, but never past this, so a
// run always ends well within its time limit.
constexpr double kMaxLoopSeconds = 120.0;
// Exact (count-derived) metrics average this many timed steps, so they do
// not depend on how many steps fit into --seconds.
constexpr std::size_t kExactSteps = 100;
// Routings kept from traced steps for the store replay.
constexpr std::size_t kReplaySteps = 3;
constexpr double kTailQuantile = 0.9;
// Untraced steps are timed in windows of this many consecutive steps. Host
// steal and process CPU are read at each window boundary, and the windowed
// p90 takes one percentile per window (support.h).
constexpr std::size_t kWindowSteps = 10;
// Windows in which the host stole more of its CPU time than this are left
// out of the timings while quieter ones suffice. On the shared 4-core host
// the benchmark was tuned on, 10-step windows of VELA over sockets ran in a
// median 249 ms at 0-0.5% steal, 289 ms at 1-2% and 329 ms at 4-8%.
constexpr double kQuietStealPct = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/vela_bench/out";
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vela_bench: %s\nusage: vela_bench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       vela_bench --list\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      o.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed " + v);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds " + v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      o.trace = v == "1" ? 1 : 0;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!o.list && (o.workload.empty() || o.seconds <= 0.0 || o.trace < 0)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

// The workload fixes every knob through config fields; no VELA_* variable
// of the caller's environment may change what is measured.
void clear_vela_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("VELA_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

struct Prefix {
  Batch first_batch;
  std::vector<float> losses;
  std::vector<std::uint64_t> measured, modeled;
  std::uint64_t control_bytes = 0;
  std::size_t thrown = 0;
};

Prefix run_prefix(Subject& subject, data::BatchIterator& it,
                  const Workload& wl) {
  Prefix p;
  p.control_bytes = subject.control_bytes();
  for (std::size_t i = 0; i < kPrefixSteps; ++i) {
    Batch batch = it.next();
    if (i == 0) p.first_batch = batch;
    try {
      const StepOut out = subject.step(batch, wl.ledger_check);
      p.losses.push_back(out.loss);
      p.measured.push_back(out.external_bytes);
      p.modeled.push_back(out.modeled_external_bytes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "prefix step %zu threw: %s\n", i, e.what());
      ++p.thrown;
      break;
    }
  }
  return p;
}

struct Loop {
  std::vector<double> step_ms;         // untraced steps
  std::vector<double> traced_step_ms;  // traced steps (trace mode)
  std::vector<Window> windows;         // untraced steps (untraced mode)
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double exact_ext_mb = 0.0;
  double exact_modeled_s = 0.0;
  std::size_t exact_n = 0;
  std::vector<std::vector<moe::RoutePlan>> plans;  // first traced steps
};

// The untraced steps the timed metrics are taken from: those of the quiet
// windows (support.h), with enough steps for a p90.
struct Timings {
  std::vector<double> step_ms;
  double cpu_s = 0.0;
  std::size_t windows = 0;
  double max_steal_pct = 0.0;
  TailPercentile p90;
};

Timings timings(const std::vector<Window>& windows) {
  Timings t;
  for (const Window* w : quiet_windows(windows, kQuietStealPct,
                                       min_samples_for_tail(kTailQuantile))) {
    t.step_ms.insert(t.step_ms.end(), w->step_ms.begin(), w->step_ms.end());
    t.cpu_s += w->cpu_s;
    ++t.windows;
    t.max_steal_pct = std::max(t.max_steal_pct, w->steal_pct);
  }
  t.p90 = windowed_tail(t.step_ms, kTailQuantile, kWindowSteps);
  return t;
}

bool enough(const std::vector<Window>& windows) {
  const Timings t = timings(windows);
  return t.step_ms.size() >= min_samples_for_tail(kTailQuantile) &&
         t.p90.above >= kMinAboveTail;
}

// Closed loop, one caller: the next step starts when the previous returns.
// Untraced, it runs for `seconds` and until the kept windows hold a p90
// with kMinAboveTail samples above it; traced (`interleave`), it runs for
// `seconds` and every other step records spans.
Loop run_loop(Subject& subject, data::BatchIterator& it, Tracer& tr,
              double seconds, bool interleave) {
  Loop loop;
  Tracer off(false, "");
  const char* step_name = subject.is_ep() ? "ep.step" : "core.step";
  Window window;
  double window_cpu0 = process_cpu_seconds();
  CpuTimes window_host0 = read_cpu_times();
  const auto t0 = SteadyClock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(t0);
    const bool done =
        elapsed >= seconds &&
        (interleave || (window.step_ms.empty() && enough(loop.windows)));
    if (done || elapsed >= kMaxLoopSeconds) {
      break;
    }
    const bool traced = interleave && i % 2 == 0;
    Tracer& t = traced ? tr : off;
    Batch batch;
    {
      auto span = t.scope("data.batch_wait");
      batch = it.next();
    }
    ++loop.attempted;
    StepOut out;
    auto span = t.scope(step_name);
    const auto ts = SteadyClock::now();
    try {
      out = subject.step(batch, false);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "step %zu threw: %s\n", i, e.what());
      ++loop.failed;
      break;
    }
    const double ms = seconds_since(ts) * 1e3;
    span.arg("external_bytes", static_cast<double>(out.external_bytes));
    span.arg("total_bytes", static_cast<double>(out.total_bytes));
    span.arg("assignments", static_cast<double>(out.assignments));
    span.end();
    if (!std::isfinite(out.loss)) ++loop.failed;
    (traced ? loop.traced_step_ms : loop.step_ms).push_back(ms);
    if (!interleave) {
      window.step_ms.push_back(ms);
      if (window.step_ms.size() == kWindowSteps) {
        const double cpu = process_cpu_seconds();
        const CpuTimes host = read_cpu_times();
        window.cpu_s = cpu - window_cpu0;
        window.steal_pct = steal_pct(window_host0, host);
        loop.windows.push_back(std::move(window));
        window = Window{};
        window_cpu0 = cpu;
        window_host0 = host;
      }
    }
    if (loop.exact_n < kExactSteps) {
      loop.exact_ext_mb += out.external_mb_per_node;
      loop.exact_modeled_s += out.modeled_step_s;
      ++loop.exact_n;
    }
    if (traced && subject.vela() != nullptr &&
        loop.plans.size() < kReplaySteps) {
      loop.plans.push_back(subject.vela()->model().last_plans());
    }
  }
  return loop;
}

// Runs after the measured system is gone, so references never count
// towards its peak memory.
std::vector<Check> correctness(const Workload& wl, const Inputs& in,
                               const Prefix& p, const std::string& store_dir) {
  std::vector<Check> checks;
  checks.push_back(check_finite(p.losses));
  if (p.losses.empty()) return checks;
  if (wl.ledger_check) {
    checks.push_back(check_ledger(p.measured, p.modeled, p.control_bytes));
  }
  if (wl.dense_check) {
    DenseTwin twin(vela_config(wl, ""), in.corpus);
    checks.push_back(check_step0_loss(p.losses[0], twin.loss(p.first_batch)));
  }
  if (wl.reference_check) {
    Workload ref = wl;
    ref.transport = comm::TransportKind::kSocket;
    ref.expert_budget = kPagedBudget;
    Tracer off(false, "");
    Subject subject(ref, in, store_dir, &off);
    data::BatchIterator it(in.dataset, kBatch, in.seed, /*shuffle=*/true);
    const Prefix r = run_prefix(subject, it, ref);
    checks.push_back(check_bit_identical(p.losses, r.losses));
  }
  return checks;
}

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, double>> metrics;
};

// Steps failed: thrown or non-finite in the loop, plus every prefix step a
// check rejected (a step failing several checks counts once).
void tally(Result& r, const Prefix& p, const Loop& loop) {
  std::set<std::size_t> bad;
  for (const Check& c : r.checks) {
    bad.insert(c.bad_steps.begin(), c.bad_steps.end());
  }
  const std::size_t never_run = kPrefixSteps - p.losses.size() - p.thrown;
  r.attempted = kPrefixSteps + loop.attempted;
  r.failed = bad.size() + p.thrown + never_run + loop.failed;
}

Result run_untraced(const Workload& wl, const Inputs& in, const Options& opt,
                    const std::string& store_dir) {
  Tracer off(false, "");
  std::vector<double> setups;
  auto t0 = SteadyClock::now();
  auto subject = std::make_unique<Subject>(wl, in, store_dir, &off);
  setups.push_back(seconds_since(t0));
  data::BatchIterator it(in.dataset, kBatch, in.seed, /*shuffle=*/true);
  const Prefix prefix = run_prefix(*subject, it, wl);
  Loop loop;
  if (prefix.thrown == 0) {
    loop = run_loop(*subject, it, off, opt.seconds, false);
  }
  const double rss = peak_rss_mb();
  subject.reset();
  // The remaining set-ups only time setup_s. They run after the peak-memory
  // reading: building systems one after another fragments the heap, which
  // made peak_rss_mb vary by ±5% between runs of the same seed.
  for (std::size_t i = 1; i < wl.setups; ++i) {
    t0 = SteadyClock::now();
    Subject extra(wl, in, store_dir, &off);
    setups.push_back(seconds_since(t0));
  }

  Result r;
  r.checks = correctness(wl, in, prefix, store_dir);
  tally(r, prefix, loop);

  const Timings timed = timings(loop.windows);
  const double p50 = median(timed.step_ms);
  const TailPercentile& p90 = timed.p90;
  const double steps = static_cast<double>(timed.step_ms.size());
  double loss_sum = 0.0;
  for (float l : prefix.losses) loss_sum += l;
  const double n_exact =
      static_cast<double>(std::max<std::size_t>(1, loop.exact_n));
  r.metrics = {
      {"tokens_per_s",
       p50 > 0.0 ? static_cast<double>(kBatch * kSeqLen) / (p50 / 1e3) : 0.0},
      {"step_ms_p50", p50},
      {"step_ms_p90", p90.value},
      {"setup_s", median(setups)},
      {"cpu_ms_per_step", steps > 0.0 ? timed.cpu_s * 1e3 / steps : 0.0},
      {"external_mb_per_node_step", loop.exact_ext_mb / n_exact},
      {"modeled_step_ms", loop.exact_modeled_s * 1e3 / n_exact},
      {"train_loss_mean",
       prefix.losses.empty()
           ? 0.0
           : loss_sum / static_cast<double>(prefix.losses.size())},
      {"peak_rss_mb", rss},
  };
  std::fprintf(stderr,
               "timed: %zu steps in %zu windows of %zu; kept %zu windows "
               "(steal <= %.2f%%); p50 %.2f ms, p90 %.2f ms with %zu samples "
               "above; set-ups:",
               loop.step_ms.size(), loop.windows.size(), kWindowSteps,
               timed.windows, timed.max_steal_pct, p50, p90.value, p90.above);
  for (double s : setups) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n");
  if (p90.above < kMinAboveTail) {
    std::fprintf(stderr, "warning: p90 has only %zu samples above it\n",
                 p90.above);
  }
  return r;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::vector<std::pair<std::string, double>> per_layer(const Tracer& tr,
                                                      const Workload& wl,
                                                      const Loop& loop) {
  auto us = [&](const char* n) { return tr.median_us(n); };
  auto ms = [&](const char* n) { return tr.median_us(n) / 1e3; };
  auto arg_median = [&](const char* n, const char* k) {
    return median(tr.arg_values(n, k));
  };
  const char* step = wl.ep ? "ep.step" : "core.step";

  double flops = 0.0;
  double gemm_us = 0.0;
  for (const char* n :
       {"tensor.matmul", "tensor.matmul_nt", "tensor.matmul_tn"}) {
    for (double f : tr.arg_values(n, "flops")) flops += f;
    gemm_us += tr.total_us(n);
  }
  const double pool_n = us("util.pool_nlanes");
  const double hits = mean(tr.arg_values("store.replay", "hits"));
  const double misses = mean(tr.arg_values("store.replay", "misses"));
  const double replayed_steps = mean(tr.arg_values("store.replay", "steps"));
  const double wire = arg_median("comm.frame_size", "wire_bytes");
  const double untraced = median(loop.step_ms);
  const double traced = median(loop.traced_step_ms);
  const double dense_step = ms("model.dense_step");
  return {
      {"tensor.matmul_us", us("tensor.matmul")},
      {"tensor.matmul_nt_us", us("tensor.matmul_nt")},
      {"tensor.matmul_tn_us", us("tensor.matmul_tn")},
      {"tensor.matmul_gflops", gemm_us > 0.0 ? flops / gemm_us / 1e3 : 0.0},
      {"tensor.softmax_rows_us", us("tensor.softmax_rows")},
      {"tensor.topk_rows_us", us("tensor.topk_rows")},
      {"tensor.matmul_nt_q8_us", us("tensor.matmul_nt_q8")},
      {"nn.rmsnorm_us", us("nn.rmsnorm")},
      {"nn.adamw_step_ms", ms("nn.adamw_step")},
      {"util.pool_speedup",
       pool_n > 0.0 ? us("util.pool_1lane") / pool_n : 0.0},
      {"autograd.backward_ms", ms("autograd.backward")},
      {"autograd.nodes", arg_median("autograd.backward", "nodes")},
      {"moe.gate_forward_us", us("moe.gate_forward")},
      {"moe.assignments_per_step", arg_median(step, "assignments")},
      {"model.dense_forward_ms", ms("model.dense_forward")},
      {"model.dense_step_ms", dense_step},
      {"data.batch_wait_ms", ms("data.batch_wait")},
      {"core.construct_ms", ms("core.construct")},
      {"core.profile_ms", ms("core.profile")},
      {"core.step_ms", ms("core.step")},
      {"core.dist_overhead_ms", wl.ep ? 0.0 : ms("core.step") - dense_step},
      {"placement.optimize_ms", ms("placement.optimize")},
      {"placement.lp_solve_ms", ms("placement.lp_solve")},
      {"placement.lp_iterations",
       arg_median("placement.optimize", "lp_iterations")},
      {"ep.construct_ms", ms("ep.construct")},
      {"ep.step_ms", ms("ep.step")},
      {"comm.encode_frame_us", us("comm.encode_frame")},
      {"comm.decode_frame_us", us("comm.decode_frame")},
      {"comm.frame_bytes_per_wire_byte",
       wire > 0.0 ? arg_median("comm.frame_size", "frame_bytes") / wire : 0.0},
      {"comm.inproc_rtt_us", us("comm.inproc_rtt")},
      {"comm.socket_rtt_us", us("comm.socket_rtt")},
      {"comm.external_bytes_per_step",
       mean(tr.arg_values(step, "external_bytes"))},
      {"comm.total_bytes_per_step", mean(tr.arg_values(step, "total_bytes"))},
      {"store.page_in_mb_per_step",
       replayed_steps > 0.0
           ? mean(tr.arg_values("store.replay", "page_in_bytes")) /
                 replayed_steps / 1e6
           : 0.0},
      {"store.page_out_mb_per_step",
       replayed_steps > 0.0
           ? mean(tr.arg_values("store.replay", "page_out_bytes")) /
                 replayed_steps / 1e6
           : 0.0},
      {"store.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0},
      {"store.page_in_us", us("store.page_in")},
      {"store.page_out_us", us("store.page_out")},
      {"trace.overhead_pct",
       untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0},
  };
}

Result run_traced(const Workload& wl, const Inputs& in, const Options& opt,
                  const std::string& store_dir) {
  const std::string label = wl.name + "/seed" + std::to_string(in.seed);
  Tracer tr(true, label);
  auto subject = std::make_unique<Subject>(wl, in, store_dir, &tr);
  data::BatchIterator it(in.dataset, kBatch, in.seed, /*shuffle=*/true);
  const Prefix prefix = run_prefix(*subject, it, wl);
  Loop loop;
  if (prefix.thrown == 0) loop = run_loop(*subject, it, tr, opt.seconds, true);
  replay_placement(*subject, tr);
  replay_store(*subject, loop.plans, store_dir, tr);
  subject.reset();
  replay_dense(wl, in, prefix.first_batch, tr);
  replay_kernels(tr);
  replay_comm(wl, tr);

  Result r;
  r.checks = correctness(wl, in, prefix, store_dir);
  tally(r, prefix, loop);
  r.metrics = per_layer(tr, wl, loop);

  const std::string path = opt.out_dir + "/trace-" + wl.name + "-seed" +
                           std::to_string(in.seed) + ".json";
  const bool ok = tr.write_chrome_json(
      path, {{"workload", wl.name},
             {"seed", std::to_string(in.seed)},
             {"lanes", std::to_string(kLanes)}});
  std::fprintf(stderr, "trace: %zu spans -> %s%s\n", tr.spans().size(),
               path.c_str(), ok ? "" : " (write failed)");
  if (!ok) throw std::runtime_error("cannot write trace " + path);
  return r;
}

void print_result(const Result& r, const std::vector<MetricDef>& defs) {
  bool correct = r.failed == 0;
  for (const Check& c : r.checks) correct = correct && c.ok;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < defs.size(); ++i) {
    double v = 0.0;
    for (const auto& [name, value] : r.metrics) {
      if (name == defs[i].name) v = value;
    }
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name.c_str(), v,
                defs[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  clear_vela_env();
  const Options opt = parse(argc, argv);
  if (opt.list) {
    for (const Workload& w : workloads()) {
      std::printf("workload %s\n", w.name.c_str());
    }
    for (const auto& m : end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    for (const auto& m : per_layer_metrics()) {
      std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    return 0;
  }
  const Workload* wl = find_workload(opt.workload);
  if (wl == nullptr) usage("unknown workload " + opt.workload);

  const CpuTimes cpu0 = read_cpu_times();
  util::ThreadPool::set_global_threads(kLanes);
  const std::string store_dir =
      opt.out_dir + "/store-" + std::to_string(::getpid());
  std::filesystem::create_directories(store_dir);
  const Inputs in(opt.seed);

  Result r;
  try {
    r = opt.trace == 1 ? run_traced(*wl, in, opt, store_dir)
                       : run_untraced(*wl, in, opt, store_dir);
  } catch (...) {
    std::filesystem::remove_all(store_dir);
    throw;
  }
  std::filesystem::remove_all(store_dir);

  const HostNoise host = host_noise(cpu0);
  std::fprintf(stderr,
               "host: nproc=%ld lanes=%zu steal=%.2f%% loadavg1=%.2f "
               "workload=%s seed=%llu trace=%d\n",
               host.nproc, kLanes, host.steal_pct, host.loadavg_1m,
               wl->name.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace);
  for (const Check& c : r.checks) {
    std::fprintf(stderr, "check %-36s %s%s%s\n", c.name.c_str(),
                 c.ok ? "ok" : "FAILED", c.ok ? "" : ": ", c.detail.c_str());
  }
  print_result(r, opt.trace == 1 ? per_layer_metrics() : end_to_end_metrics());
  return 0;
}

}  // namespace
}  // namespace vela_bench

int main(int argc, char** argv) {
  try {
    return vela_bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vela_bench: %s\n", e.what());
    return 1;
  }
}
