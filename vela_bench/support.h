// Measurement support for vela_bench: the tail-percentile helpers, an
// in-memory span recorder that exports Chrome trace-event JSON, process
// resource counters and the host-noise snapshot every run records.
//
// Everything here runs on the benchmark's single caller thread; the system
// under test owns its own threads and is only ever entered through public
// calls that the spans bracket.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vela_bench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// --- percentiles -------------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct TailPercentile {
  double value = 0.0;
  std::size_t above = 0;  // samples strictly greater than `value`
  std::size_t samples = 0;
};

// Nearest-rank percentile q ∈ (0, 1), reported with the number of samples
// that lie strictly above it. A tail is only meaningful when at least
// kMinAboveTail samples lie beyond it; callers size their runs so it holds.
inline constexpr std::size_t kMinAboveTail = 10;

inline TailPercentile tail_percentile(std::vector<double> v, double q) {
  TailPercentile t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  t.value = v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  t.above = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), t.value));
  return t;
}

// The tail of a run on a shared host: the median, over consecutive windows
// of `window` samples, of each window's nearest-rank q-percentile. A burst
// of slow steps caused by another tenant sets the p90 of the whole run as
// soon as it covers a tenth of the steps; here it moves only the windows it
// falls in, and the median sets those aside while they are fewer than half.
// A trailing partial window is left out of the median. `above` counts the
// samples of the whole run that lie strictly above the value.
inline TailPercentile windowed_tail(const std::vector<double>& v, double q,
                                    std::size_t window) {
  TailPercentile t;
  t.samples = v.size();
  std::vector<double> tails;
  for (std::size_t i = 0; window > 0 && i + window <= v.size(); i += window) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last = first + static_cast<std::ptrdiff_t>(window);
    tails.push_back(tail_percentile({first, last}, q).value);
  }
  if (tails.empty()) return t;
  t.value = median(tails);
  t.above = static_cast<std::size_t>(std::count_if(
      v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

// --- quiet windows -----------------------------------------------------------

// Consecutive timed steps and what the host did meanwhile.
struct Window {
  std::vector<double> step_ms;
  double cpu_s = 0.0;      // process CPU, every thread
  double steal_pct = 0.0;  // host CPU time stolen by the hypervisor
};

// The windows a run's timings are taken from, in run order: every window in
// which the host stole at most `quiet_pct` of its CPU time and, while those
// hold fewer than `min_steps` steps, the least-stolen of the others. On a
// shared host, steal comes in episodes of a minute or more that slow every
// step by up to half; which windows they hit does not depend on the code
// under test.
inline std::vector<const Window*> quiet_windows(const std::vector<Window>& w,
                                                double quiet_pct,
                                                std::size_t min_steps) {
  std::vector<std::size_t> order(w.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return w[a].steal_pct < w[b].steal_pct;
                   });
  std::vector<bool> keep(w.size(), false);
  std::size_t steps = 0;
  for (std::size_t i : order) {
    if (w[i].steal_pct > quiet_pct && steps >= min_steps) break;
    keep[i] = true;
    steps += w[i].step_ms.size();
  }
  std::vector<const Window*> out;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (keep[i]) out.push_back(&w[i]);
  }
  return out;
}

// Samples a run needs so that the q-percentile keeps kMinAboveTail above it.
inline std::size_t min_samples_for_tail(double q) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinAboveTail) / (1.0 - q) - 1e-9));
}

// --- spans -------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;          // "<layer>.<call>"
  std::string layer;
  double t0_us = 0.0;  // since the tracer's epoch
  double dur_us = 0.0;
  std::map<std::string, double> args;  // "reps" divides dur_us per call
};

// Records spans around public calls into the layers. Disarmed, begin/end
// cost one branch and record nothing, so the untraced and traced loops run
// the same code.
class Tracer {
 public:
  Tracer(bool armed, std::string run_label)
      : armed_(armed), run_(std::move(run_label)), epoch_(SteadyClock::now()) {}

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::uint64_t parent)
        : tracer_(tracer->armed_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      span_.id = ++tracer_->next_id_;
      span_.parent = parent;
      span_.layer = name.substr(0, name.find('.'));
      span_.name = std::move(name);
      t0_ = SteadyClock::now();
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return tracer_ != nullptr ? span_.id : 0; }
    void arg(const std::string& key, double value) {
      if (tracer_ != nullptr) span_.args[key] = value;
    }
    // Closes the span now (idempotent); args may still be added before.
    void end() {
      if (tracer_ == nullptr) return;
      const auto t1 = SteadyClock::now();
      span_.t0_us =
          std::chrono::duration<double, std::micro>(t0_ - tracer_->epoch_)
              .count();
      span_.dur_us =
          std::chrono::duration<double, std::micro>(t1 - t0_).count();
      tracer_->spans_.push_back(std::move(span_));
      tracer_ = nullptr;
    }

   private:
    Tracer* tracer_;
    Span span_;
    SteadyClock::time_point t0_{};
  };

  Scope scope(std::string name, std::uint64_t parent = 0) {
    return Scope(this, std::move(name), parent);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per-call durations (µs) of every span called `name`.
  std::vector<double> per_call_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      const auto it = s.args.find("reps");
      const double reps = it != s.args.end() ? it->second : 1.0;
      out.push_back(s.dur_us / reps);
    }
    return out;
  }
  double median_us(const std::string& name) const {
    return median(per_call_us(name));
  }
  // Values of arg `key` over every span called `name`.
  std::vector<double> arg_values(const std::string& name,
                                 const std::string& key) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      const auto it = s.args.find(key);
      if (it != s.args.end()) out.push_back(it->second);
    }
    return out;
  }
  double total_us(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) t += s.dur_us;
    }
    return t;
  }

  // Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev).
  bool write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& meta) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
    bool first = true;
    for (const auto& [k, v] : meta) {
      out << (first ? "" : ",") << '"' << k << "\":\"" << v << '"';
      first = false;
    }
    out << "},\"traceEvents\":[";
    first = true;
    char num[64];
    for (const Span& s : spans_) {
      out << (first ? "" : ",\n");
      first = false;
      std::snprintf(num, sizeof(num), "%.3f", s.t0_us);
      out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num;
      std::snprintf(num, sizeof(num), "%.3f", s.dur_us);
      out << ",\"dur\":" << num << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"layer\":\"" << s.layer
          << "\",\"run\":\"" << run_ << '"';
      for (const auto& [k, v] : s.args) {
        std::snprintf(num, sizeof(num), "%.17g", v);
        out << ",\"" << k << "\":" << num;
      }
      out << "}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool armed_;
  std::string run_;
  SteadyClock::time_point epoch_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

// --- process and host counters ----------------------------------------------

// User + system CPU seconds of the whole process (every thread).
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Aggregate jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

inline CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {  // user .. steal
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// Share of host CPU time the hypervisor stole between two readings.
inline double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

struct HostNoise {
  long nproc = 0;
  double steal_pct = 0.0;  // share of host CPU time stolen during the run
  double loadavg_1m = 0.0;
};

inline HostNoise host_noise(const CpuTimes& before) {
  HostNoise h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.steal_pct = steal_pct(before, read_cpu_times());
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) h.loadavg_1m = load[0];
  return h;
}

}  // namespace vela_bench
