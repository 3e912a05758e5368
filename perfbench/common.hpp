// Shared vocabulary of the benchmark binary: command-line options, the
// outcome every workload fills in (metrics, correctness checks, operation
// counts), and the clock and percentile helpers the workloads time with.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< Untraced + traced phases; per-layer metrics.
  /// Perturbs one observed output before it is checked, so the run must
  /// fail: the self-test's proof that the output checks have teeth.
  bool corrupt = false;
  std::string spans_path;  ///< Traced runs write their spans here.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> metrics;
  /// Established names of the headline figures (sweep_trials_per_s,
  /// closed_rps, open_drain_s, ...), printed for humans before the result.
  std::vector<std::pair<std::string, Metric>> aliases;
  std::vector<std::string> failures;  ///< Failed correctness checks.
  std::vector<std::string> notes;     ///< Informational lines.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void alias(const std::string& name, double value, const std::string& unit) {
    aliases.emplace_back(name, Metric{value, unit});
  }
  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample. Reorders
/// `v`.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const auto ceil_rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t rank = std::min(std::max<std::size_t>(ceil_rank, 1),
                                    v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

/// Fixed-memory latency distribution: log-linear buckets, 2^sub_bits per
/// power of two (256 by default, 0.4% wide), exact below 2^sub_bits ns.
/// Quantiles interpolate by rank inside the holding bucket. Its footprint
/// does not grow with the sample count, so a faster program never shows as
/// a larger peak RSS.
class Quantiles {
 public:
  explicit Quantiles(unsigned sub_bits = 8)
      : bits_(sub_bits), counts_((64 - sub_bits + 1) << sub_bits, 0) {}

  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
  }
  /// Merges `o` (same resolution) with every sample divided by
  /// `slowdown`, re-binned at its bucket's midpoint.
  void merge_scaled(const Quantiles& o, double slowdown) {
    for (std::size_t i = 0; i < o.counts_.size(); ++i) {
      if (o.counts_[i] == 0) continue;
      const double mid = static_cast<double>(lower(i)) +
                         static_cast<double>(width(i)) / 2.0;
      counts_[index(static_cast<std::uint64_t>(mid / slowdown))] += o.counts_[i];
    }
    n_ += o.n_;
    sum_ += o.sum_ / slowdown;
  }
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }

  /// Value at quantile q in (0, 1]; 0 when empty.
  double at(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = std::max(1.0, std::ceil(q * static_cast<double>(n_)));
    double below = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0 && below + c >= rank) {
        const double within = (rank - below - 0.5) / c;
        return static_cast<double>(lower(i)) +
               within * static_cast<double>(width(i));
      }
      below += c;
    }
    return 0.0;
  }

 private:
  std::uint64_t sub() const { return std::uint64_t{1} << bits_; }
  std::size_t index(std::uint64_t v) const {
    if (v < sub()) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const std::uint64_t m = v >> (e - bits_);  // In [sub, 2 sub).
    return static_cast<std::size_t>(((e - bits_ + 1) << bits_) + (m - sub()));
  }
  std::uint64_t width(std::size_t i) const {
    const std::uint64_t octave = i >> bits_;
    return octave < 2 ? 1 : std::uint64_t{1} << (octave - 1);
  }
  std::uint64_t lower(std::size_t i) const {
    const std::uint64_t octave = i >> bits_;
    if (octave == 0) return i;
    return (sub() + (i & (sub() - 1))) << (octave - 1);
  }

  unsigned bits_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// Latency per fixed-length window of time. A run reports the median over
/// windows of each window's p50 and the lower quartile of their p99s. Host
/// stalls of a few milliseconds hit a minority of windows and stay out of
/// the figure, while the tail inside ordinary windows is kept.
class Windows {
 public:
  Windows(std::uint64_t origin_ns, double seconds, std::uint64_t window_ns)
      : origin_(origin_ns),
        window_ns_(window_ns),
        windows_(static_cast<std::size_t>(seconds * 1e9 /
                                          static_cast<double>(window_ns)) + 1,
                 Quantiles(5)) {}

  void add(std::uint64_t at_ns, std::uint64_t v) {
    const std::uint64_t i = at_ns > origin_ ? (at_ns - origin_) / window_ns_ : 0;
    windows_[std::min<std::size_t>(i, windows_.size() - 1)].add(v);
  }
  void merge(const Windows& o) {
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      windows_[i].merge_scaled(o.windows_[i], 1.0);
    }
  }
  std::size_t size() const { return windows_.size(); }
  const Quantiles& operator[](std::size_t i) const { return windows_[i]; }

 private:
  std::uint64_t origin_;
  std::uint64_t window_ns_;
  std::vector<Quantiles> windows_;
};

/// Per-window figures of a run, at nominal host speed.
struct WindowFigures {
  std::vector<double> mean;
  std::vector<double> p50;
  std::vector<double> p99;

  /// Adds window i of `w`, divided by `slowdown`, if it holds at least
  /// `min_samples` samples (fewer have no meaningful p99).
  void add(const Windows& w, std::size_t i, double slowdown,
           std::uint64_t min_samples) {
    if (w[i].count() < min_samples) return;
    mean.push_back(w[i].mean() / slowdown);
    p50.push_back(w[i].at(0.50) / slowdown);
    p99.push_back(w[i].at(0.99) / slowdown);
  }
  void add_all(const Windows& w, double slowdown, std::uint64_t min_samples) {
    for (std::size_t i = 0; i < w.size(); ++i) add(w, i, slowdown, min_samples);
  }
  /// The run's p50: the median window's.
  double run_p50() { return quantile(p50, 0.50); }
  /// The run's p99: the lower-quartile window's, the tail of a quiet
  /// window (noise and stalls only add latency).
  double run_p99() { return quantile(p99, 0.25); }
};

/// Host speed relative to a fixed reference. Other tenants of a shared
/// machine slow its CPU by tens of percent for seconds at a time. Running
/// a fixed, benchmark-owned kernel between slices of a workload measures
/// that slowdown, and dividing the slice's times by it reports them at the
/// kernel's nominal speed, which cancels most of the run-to-run drift.
class HostSpeed {
 public:
  /// Nominal time of one kernel repetition (about its unloaded time on an
  /// x86-64 Xeon; only the ratio matters).
  static constexpr double kNominalNs = 200'000.0;

  /// Runs the kernel `reps` times; returns the slowdown over that window
  /// (elapsed / nominal, 1.0 = nominal speed).
  double sample(unsigned reps);
  /// Slowdown over every sample so far.
  double overall() const {
    return total_reps_ == 0 ? 1.0 : total_ns_ / (total_reps_ * kNominalNs);
  }
 private:
  std::uint64_t seed_ = 0;
  double total_ns_ = 0.0;
  double total_reps_ = 0.0;
};

/// Fixed thread placement. Every thread (sweeper, shard workers,
/// supervisor, closed-loop clients) runs on the first CPU of the process's
/// affinity mask, except the open-loop generator, which gets the second
/// (the first when there is only one) so that it can keep its schedule.
/// Threads inherit the CPU of the thread that creates them. Left to the
/// scheduler, the placement differs from run to run and so do the figures;
/// on one CPU they are work per operation, not parallel speedup.
enum class Role { kProgram, kGenerator };
void pin_current_thread(Role role);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Entry points of the two workload families.
void run_sweep_workload(const Options& opt, Outcome& out);
void run_service_workload(const Options& opt, Outcome& out);

}  // namespace perfbench
