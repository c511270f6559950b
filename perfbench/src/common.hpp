// Shared pieces of the benchmark program: clocks, the peak-RSS sampler,
// percentiles, the input fingerprint, output checks and the result that
// main() prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "detector/generator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Arguments every workload receives.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  Clock::time_point process_start;  ///< taken first thing in main()
};

/// Resident-set sampler: a thread reads /proc/self/statm every 10 ms
/// between start() and stop() and keeps the maximum, so the peak covers
/// the timed part only, not set-up.
class RssSampler {
 public:
  ~RssSampler() { stop(); }
  void start();
  void stop();
  double peak_mb() const { return static_cast<double>(peak_bytes_) / 1e6; }

 private:
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> peak_bytes_{0};
  std::thread thread_;
};

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it:
/// 100 * (1 - 10 / n), capped at p99. 0 when n < 11.
double tail_percentile_for(std::size_t n);

/// FNV-1a over everything the program reads from the events: hits,
/// truth, candidate graph, labels and feature matrices.
class InputHash {
 public:
  void add(const trkx::Event& event);
  void add_bytes(const void* data, std::size_t n);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Output checks. Each records pass/fail and prints one line.
class Checks {
 public:
  bool expect(bool ok, const std::string& what);
  bool all_passed() const { return failed_ == 0; }

 private:
  int failed_ = 0;
};

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;           ///< untraced runs
  std::map<std::string, double> per_layer;  ///< traced runs
  /// Workload identity: printed before the result line and written into
  /// the result file next to it.
  std::vector<std::pair<std::string, std::string>> identity;

  void set_e2e(const std::string& name, double value, const std::string& unit);
  void set_identity(const std::string& key, const std::string& json_value);
};

/// Thread split of a workload (ranks × OpenMP threads + prefetch threads).
struct ThreadSplit {
  int ranks = 1;
  int omp_threads = 1;
  int prefetch_threads = 0;
  int serve_workers = 0;
  std::string to_json() const;
};

/// Identity entries shared by every workload: seed, events, hits and edges
/// per event (also the detector.* per-layer counts), input hash, thread
/// split.
void add_input_identity(RunResult& result, std::uint64_t seed,
                        const std::vector<const trkx::Event*>& events,
                        const ThreadSplit& split);

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
