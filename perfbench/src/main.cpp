// trkx-perfbench: runs one benchmark workload and prints its metrics.
//
//   trkx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir .bench_out]
//
// with OMP_NUM_THREADS=1 in the environment, as perfbench/run.py sets it.
//
// Workloads: train-ctd-shadow, train-ex3-ddp4, train-ctd-fullgraph,
// serve-ex3. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines before it
// give the workload's identity, the output checks and, when traced, the
// per-layer table; the same record is written to
// <out-dir>/result-<workload>-seed<n>-trace<t>.json.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/manifest.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"detector.generate_s", "s"},
      {"detector.hits_per_event", "count"},
      {"detector.edges_per_event", "count"},
      {"sampling.sampler_build_s", "s"},
      {"sampling.sample_s", "s"},
      {"sampling.gather_s", "s"},
      {"sampling.bulk_call_ms", "ms"},
      {"sampling.subgraph_edges_per_root", "count"},
      {"prefetch.stall_s", "s"},
      {"gnn.forward_s", "s"},
      {"autograd.backward_s", "s"},
      {"nn.step_s", "s"},
      {"train.unattributed_s", "s"},
      {"train.parent_edges_per_s", "1/s"},
      {"tensor.pool_hit_rate", "ratio"},
      {"tensor.pool_cached_mb", "MB"},
      {"tensor.memplan_reuses_per_step", "ratio"},
      {"tensor.memplan_arena_mb", "MB"},
      {"dist.allreduce_s", "s"},
      {"dist.allreduce_calls_per_step", "count"},
      {"dist.allreduce_bytes_per_step", "bytes"},
      {"dist.allreduce_modeled_s", "s"},
      {"io.decode_ms", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_tail", "ms"},
      {"serve.generator_lag_ms", "ms"},
      {"serve.degrade_level_max", "count"},
      {"pipeline.embed_ms", "ms"},
      {"pipeline.filter_ms", "ms"},
      {"pipeline.gnn_ms", "ms"},
      {"pipeline.build_ms", "ms"},
      {"pipeline.fit_ms", "ms"},
      {"pipeline.candidate_edges_per_event", "count"},
      {"pipeline.kept_edges_per_event", "count"},
      {"pipeline.fit_s", "s"},
      {"latency_tail_ms", "ms"},
      {"obs.untraced_op_ms", "ms"},
      {"obs.traced_op_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

namespace {

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_string(metrics[i].name)
       << ": {\"value\": " << json_number(metrics[i].value)
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

std::string identity_json(const RunResult& r) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < r.identity.size(); ++i)
    os << (i ? ", " : "") << json_string(r.identity[i].first) << ": "
       << r.identity[i].second;
  os << "}";
  return os.str();
}

int run(int argc, char** argv, Clock::time_point start) {
  trkx::set_log_level(trkx::LogLevel::kWarn);
  trkx::set_run_tool("trkx-perfbench");
  trkx::ArgParser cli(argc, argv);
  RunArgs args;
  args.process_start = start;
  args.workload = cli.get("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = cli.get_double("seconds", 10.0);
  args.trace = cli.get_int("trace", 0) != 0;
  args.out_dir = cli.get("out-dir", ".bench_out");
  // Threads the program starts itself take their OpenMP team size from the
  // environment, not from the main thread's omp_set_num_threads().
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  if (omp_env == nullptr || std::string(omp_env) != "1") {
    std::fprintf(stderr,
                 "perfbench: OMP_NUM_THREADS must be 1 (perfbench/run.py "
                 "sets it) so that serving workers, DDP ranks and the "
                 "prefetch producer run one OpenMP thread each\n");
    return 2;
  }
  if (args.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  const bool train = is_train_workload(args.workload);
  if (!train && args.workload != "serve-ex3") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  Checks checks;
  RunResult result = train ? run_train(args, checks) : run_serve(args, checks);

  result.set_identity("workload", json_string(args.workload));
  result.set_identity("trace", args.trace ? "1" : "0");
  result.set_identity("simd_table", json_string(trkx::kernels::active().name));
  result.set_identity("manifest", trkx::RunManifest::collect().to_json());
  std::printf("identity: %s\n", identity_json(result).c_str());

  std::vector<Metric> out;
  if (args.trace) {
    std::printf("%-36s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = result.per_layer.find(name);
      const double v = it == result.per_layer.end() ? 0.0 : it->second;
      std::printf("%-36s %14.6g  %s\n", name.c_str(), v, unit.c_str());
      out.push_back({name, v, unit});
    }
  } else {
    out = result.end_to_end;
  }
  std::ostringstream line;
  line << "{\"correct\": " << (checks.all_passed() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed
       << ", \"metrics\": " << metrics_json(out) << "}";
  std::ofstream record(args.out_dir + "/result-" + args.workload + "-seed" +
                       std::to_string(args.seed) + "-trace" +
                       (args.trace ? "1" : "0") + ".json");
  record << "{\"identity\": " << identity_json(result)
         << ", \"end_to_end\": " << metrics_json(result.end_to_end)
         << ", \"result\": " << line.str() << "}\n";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const auto start = perfbench::Clock::now();
  try {
    return perfbench::run(argc, argv, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
