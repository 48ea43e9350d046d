// Self-tests of vela_bench's checks, percentile helpers and window
// selection: every correctness check must accept a good input and reject a
// deliberately broken one. Exit code 0 iff all pass. (Metric and workload
// names are compared against BENCHMARK.json by `run.py --self-test`.)
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "checks.h"
#include "support.h"

namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

}  // namespace

int main() {
  using namespace vela_bench;

  // step-0 loss vs dense twin.
  const float dense = 4.5312345f;
  expect(check_step0_loss(dense, dense).ok, "step0: identical loss passes");
  expect(check_step0_loss(dense + 4.8e-7f, dense).ok,
         "step0: EP-sized rounding difference passes");
  const Check perturbed = check_step0_loss(dense + 1e-4f, dense);
  expect(!perturbed.ok && perturbed.bad_steps == std::vector<std::size_t>{0},
         "step0: perturbed loss fails on step 0");
  expect(!check_step0_loss(std::nanf(""), dense).ok, "step0: NaN loss fails");

  // Byte ledger vs traffic model + control traffic.
  const std::uint64_t control = 4 * 2 * 36;
  const std::vector<std::uint64_t> modeled = {10000, 12000, 9000};
  std::vector<std::uint64_t> measured = {10288, 12288, 9288};
  expect(check_ledger(measured, modeled, control).ok, "ledger: exact passes");
  measured[1] += 36;  // one header too many
  const Check off_by_header = check_ledger(measured, modeled, control);
  expect(!off_by_header.ok &&
             off_by_header.bad_steps == std::vector<std::size_t>{1},
         "ledger: off by one header fails on that step");
  expect(!check_ledger({}, {}, control).ok, "ledger: empty ledger fails");

  // Finite losses.
  expect(check_finite({4.5f, 4.4f}).ok, "finite: finite losses pass");
  const Check nonfinite =
      check_finite({4.5f, std::numeric_limits<float>::infinity(), 4.3f,
                    std::nanf("")});
  expect(!nonfinite.ok && nonfinite.bad_steps == std::vector<std::size_t>{1, 3},
         "finite: inf and NaN fail on their steps");
  expect(!check_finite({}).ok, "finite: no losses fails");

  // Bit-identity against the reference run.
  const std::vector<float> ref = {4.50f, 4.49f, 4.47f};
  expect(check_bit_identical(ref, ref).ok, "reference: identical passes");
  std::vector<float> drift = ref;
  drift[2] = std::nextafter(drift[2], 10.0f);  // one ulp
  const Check mismatch = check_bit_identical(drift, ref);
  expect(!mismatch.ok && mismatch.bad_steps == std::vector<std::size_t>{2},
         "reference: one-ulp mismatch fails on that step");
  expect(!check_bit_identical({4.5f}, ref).ok,
         "reference: length mismatch fails");

  // Tail percentile keeps >= 10 samples above the reported p90.
  const std::size_t need = min_samples_for_tail(0.9);
  expect(need == 100, "tail: p90 needs 100 samples");
  for (std::size_t n : {need, need + 1, need + 37, 5 * need}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<double>((i * 7919) % n));  // shuffled 0..n-1
    }
    const TailPercentile t = tail_percentile(v, 0.9);
    expect(t.above >= kMinAboveTail && t.samples == n,
           "tail: >= 10 samples above p90 at the minimum count and beyond");
  }
  std::vector<double> short_run(need - 1);
  for (std::size_t i = 0; i < short_run.size(); ++i) {
    short_run[i] = static_cast<double>(i);
  }
  expect(tail_percentile(short_run, 0.9).above < kMinAboveTail,
         "tail: one sample short of the minimum leaves fewer than 10 above");
  // Windowed p90: a burst that doubles one window of five sets the plain
  // p90 of the run, but not the median of the windows' p90s.
  std::vector<double> bursty;
  for (std::size_t i = 0; i < 100; ++i) {
    const double base = 100.0 + static_cast<double>((i * 7919) % 20);
    bursty.push_back(i >= 40 && i < 60 ? 2.0 * base : base);
  }
  const TailPercentile windowed = windowed_tail(bursty, 0.9, 20);
  expect(tail_percentile(bursty, 0.9).value == 218.0 &&
             windowed.value == 117.0,
         "windowed tail: a one-window burst moves only the plain p90");
  expect(windowed.above == 28 && windowed.samples == 100,
         "windowed tail: counts every sample of the run above it");
  expect(windowed_tail(short_run, 0.9, 100).samples == short_run.size() &&
             windowed_tail(short_run, 0.9, 100).value == 0.0,
         "windowed tail: no full window reports nothing");
  // Quiet windows: high-steal windows drop out while quiet ones hold enough
  // steps; otherwise the least-stolen of them fill up. Run order is kept.
  std::vector<Window> windows;
  for (double steal : {0.2, 5.0, 0.4, 3.0, 0.1}) {
    windows.push_back({std::vector<double>(40, steal), 0.0, steal});
  }
  auto kept = [&](std::size_t min_steps) {
    std::vector<double> steals;
    for (const Window* w : quiet_windows(windows, 1.0, min_steps)) {
      steals.push_back(w->steal_pct);
    }
    return steals;
  };
  expect(kept(100) == std::vector<double>{0.2, 0.4, 0.1},
         "quiet windows: noisy windows left out when quiet ones suffice");
  expect(kept(150) == std::vector<double>{0.2, 0.4, 3.0, 0.1},
         "quiet windows: least-stolen noisy window fills a short run");
  expect(kept(1000).size() == windows.size(),
         "quiet windows: every window kept when all are needed");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median: odd and even counts");

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
