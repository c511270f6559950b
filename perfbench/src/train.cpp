// Training workloads: one ShaDow run on dense CTD-like events, one 4-rank
// DDP run on sparse Ex3-like events, one full-graph run on CTD-like
// events. Every timed round trains a freshly initialised model for a fixed
// number of epochs through the program's public training entry points.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "detector/presets.hpp"
#include "dist/gradient_sync.hpp"
#include "obs/trace.hpp"
#include "pipeline/gnn_train.hpp"
#include "sampling/matrix_shadow.hpp"
#include "spans.hpp"
#include "tensor/plan.hpp"
#include "tensor/pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace trkx;

enum class Mode { kShadow, kDdp, kFullGraph };

struct TrainWorkload {
  const char* name;
  Mode mode;
  bool ctd;  ///< CTD-like events, else Ex3-like
  double scale;
  std::size_t train_events;
  std::size_t val_events;
  std::size_t hidden;
  std::size_t layers;
  std::size_t epochs_per_round;
  float lr;
  ThreadSplit split;
  std::size_t prefetch_depth;
};

// Paper settings for every ShaDow workload: d=3, s=6, global batch 256,
// bulk k=4. Inputs come from --seed; the model seed is fixed.
constexpr std::size_t kBatch = 256;
constexpr std::size_t kDepth = 3;
constexpr std::size_t kFanout = 6;
constexpr std::size_t kBulkK = 4;
constexpr std::uint64_t kModelSeed = 7;
constexpr std::uint64_t kTrainSeed = 3;

const TrainWorkload kWorkloads[] = {
    {.name = "train-ctd-shadow", .mode = Mode::kShadow, .ctd = true,
     .scale = 0.002, .train_events = 8, .val_events = 8, .hidden = 16,
     .layers = 2, .epochs_per_round = 2, .lr = 5e-3f,
     .split = {.ranks = 1, .omp_threads = 2, .prefetch_threads = 1},
     .prefetch_depth = 2},
    {.name = "train-ex3-ddp4", .mode = Mode::kDdp, .ctd = false,
     .scale = 0.05, .train_events = 4, .val_events = 8, .hidden = 32,
     .layers = 4, .epochs_per_round = 4, .lr = 3e-3f,
     .split = {.ranks = 4, .omp_threads = 1, .prefetch_threads = 0},
     .prefetch_depth = 0},
    {.name = "train-ctd-fullgraph", .mode = Mode::kFullGraph, .ctd = true,
     .scale = 0.004, .train_events = 4, .val_events = 8, .hidden = 32,
     .layers = 4, .epochs_per_round = 6, .lr = 1e-3f,
     .split = {.ranks = 1, .omp_threads = 3, .prefetch_threads = 0},
     .prefetch_depth = 0},
};

const TrainWorkload* find_workload(const std::string& name) {
  for (const TrainWorkload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// The trainer applies its learning-rate schedule once per optimizer step
/// on every rank; this schedule keeps the configured rate and stamps the
/// time of each call, so step latency is measured without tracing.
class StepClock final : public LrScheduler {
 public:
  explicit StepClock(float lr) : lr_(lr) {}
  float lr_at(std::size_t) const override {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    stamps_[std::this_thread::get_id()].push_back(now);
    return lr_;
  }
  /// Time between consecutive steps of one rank, pooled over ranks.
  std::vector<double> intervals_s() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const auto& [tid, stamps] : stamps_)
      for (std::size_t i = 1; i < stamps.size(); ++i)
        out.push_back(
            std::chrono::duration<double>(stamps[i] - stamps[i - 1]).count());
    return out;
  }

 private:
  float lr_;
  mutable std::mutex mutex_;
  mutable std::map<std::thread::id, std::vector<Clock::time_point>> stamps_;
};

struct Round {
  TrainResult result;
  std::vector<double> step_intervals_s;
  std::unique_ptr<GnnModel> model;
};

Round run_round(const TrainWorkload& w, const IgnnConfig& gnn,
                const GnnTrainConfig& base, const Dataset& data,
                std::size_t epochs) {
  TRKX_TRACE_SPAN("bench.train_round", "bench");
  auto clock = std::make_shared<StepClock>(base.lr);
  GnnTrainConfig cfg = base;
  cfg.epochs = epochs;
  cfg.scheduler = clock;
  Round r;
  r.model = std::make_unique<GnnModel>(gnn, kModelSeed);
  switch (w.mode) {
    case Mode::kShadow:
      r.result = train_shadow(*r.model, data.train, data.val, cfg,
                              SamplerKind::kMatrixBulk);
      break;
    case Mode::kDdp: {
      DistRuntime runtime(w.split.ranks);
      r.result = train_shadow_ddp(*r.model, data.train, data.val, cfg,
                                  runtime, SamplerKind::kMatrixBulk);
      break;
    }
    case Mode::kFullGraph:
      r.result = train_full_graph(*r.model, data.train, data.val, cfg);
      break;
  }
  r.step_intervals_s = clock->intervals_s();
  return r;
}

/// Steps of one epoch, from the inputs and the config alone: ShaDow takes
/// one (global) step per minibatch of each event, full-graph one per event.
std::size_t expected_steps_per_epoch(const TrainWorkload& w,
                                     const std::vector<Event>& train) {
  std::size_t steps = 0;
  for (const Event& e : train) {
    if (w.mode == Mode::kFullGraph)
      steps += e.num_edges() > 0;
    else
      steps += (e.num_hits() + kBatch - 1) / kBatch;
  }
  return steps;
}

struct SampleEpoch {
  double subgraph_edges = 0.0;
  double roots = 0.0;
  std::vector<double> call_s;  ///< wall time of each sample_bulk call
};

/// One epoch's worth of bulk sampling through the program's sampler, the
/// way the trainer chunks it: minibatches of kBatch (rank 0's shard when
/// `ranks` > 1), kBulkK per call. With `checks`, every result is checked
/// against the parent graph.
SampleEpoch sample_epoch(
    const std::vector<Event>& events,
    const std::vector<std::unique_ptr<MatrixShadowSampler>>& samplers,
    int ranks, std::uint64_t seed, Checks* checks) {
  SampleEpoch out;
  Rng rng(seed);
  std::size_t max_verts = 0, level = 1;
  for (std::size_t i = 0; i <= kDepth; ++i, level *= kFanout)
    max_verts += level;
  std::size_t bad_components = 0, bad_sizes = 0, bad_roots = 0,
              bad_edges = 0, samples = 0;
  for (std::size_t ei = 0; ei < events.size(); ++ei) {
    const Graph& parent = events[ei].graph;
    auto batches = make_minibatches(events[ei].num_hits(), kBatch, rng);
    if (ranks > 1)
      for (auto& b : batches) b = shard_batch(b, 0, ranks);
    for (std::size_t bi = 0; bi < batches.size(); bi += kBulkK) {
      const std::size_t k = std::min(kBulkK, batches.size() - bi);
      std::vector<std::vector<std::uint32_t>> chunk(
          batches.begin() + static_cast<std::ptrdiff_t>(bi),
          batches.begin() + static_cast<std::ptrdiff_t>(bi + k));
      const Clock::time_point t0 = Clock::now();
      std::vector<ShadowSample> result;
      {
        TRKX_TRACE_SPAN("bench.sample_bulk", "bench");
        result = samplers[ei]->sample_bulk(chunk, rng);
      }
      out.call_s.push_back(seconds_since(t0));
      if (result.size() != chunk.size()) {
        ++bad_components;
        continue;
      }
      for (std::size_t j = 0; j < chunk.size(); ++j) {
        const ShadowSample& s = result[j];
        const InducedSubgraph& sub = s.sub;
        out.subgraph_edges += static_cast<double>(sub.graph.num_edges());
        out.roots += static_cast<double>(chunk[j].size());
        if (!checks) continue;
        ++samples;
        if (s.num_components() != chunk[j].size() ||
            s.component_of.size() != sub.graph.num_vertices()) {
          ++bad_components;
          continue;
        }
        std::vector<std::size_t> sizes(chunk[j].size(), 0);
        for (std::uint32_t c : s.component_of)
          if (c < sizes.size()) ++sizes[c]; else ++bad_components;
        for (std::size_t c = 0; c < sizes.size(); ++c) {
          bad_sizes += sizes[c] == 0 || sizes[c] > max_verts;
          bad_roots += sub.vertex_map[s.roots[c]] != chunk[j][c] ||
                       s.component_of[s.roots[c]] != c;
        }
        for (std::size_t e = 0; e < sub.graph.num_edges(); ++e) {
          const Edge& se = sub.graph.edge(e);
          const Edge& pe = parent.edge(sub.edge_map[e]);
          bad_edges += sub.vertex_map[se.src] != pe.src ||
                       sub.vertex_map[se.dst] != pe.dst ||
                       s.component_of[se.src] != s.component_of[se.dst];
        }
      }
    }
  }
  if (checks) {
    checks->expect(bad_components == 0,
                   "sampler: one component per root in " +
                       std::to_string(samples) + " sample_bulk results");
    checks->expect(bad_sizes == 0,
                   "sampler: every component has 1.." +
                       std::to_string(max_verts) + " vertices");
    checks->expect(bad_roots == 0,
                   "sampler: each component holds its own root");
    checks->expect(bad_edges == 0,
                   "sampler: every subgraph edge maps to a parent edge with "
                   "the same endpoints inside one component");
  }
  return out;
}

std::vector<std::unique_ptr<MatrixShadowSampler>> build_samplers(
    const std::vector<Event>& events) {
  TRKX_TRACE_SPAN("bench.sampler_build", "bench");
  std::vector<std::unique_ptr<MatrixShadowSampler>> out;
  for (const Event& e : events)
    out.push_back(std::make_unique<MatrixShadowSampler>(
        e.graph, ShadowConfig{.depth = kDepth, .fanout = kFanout}));
  return out;
}

/// In-process DDP sync on integer-valued gradients: every rank must end
/// with exactly the mean the benchmark computes itself.
void check_gradient_sync(const IgnnConfig& gnn, int ranks, Checks& checks) {
  TRKX_TRACE_SPAN("bench.gradient_sync_check", "bench");
  std::vector<std::unique_ptr<GnnModel>> replicas;
  for (int r = 0; r < ranks; ++r)
    replicas.push_back(std::make_unique<GnnModel>(gnn, kModelSeed));
  const std::size_t n = replicas[0]->store.total_size();
  const auto grad = [](std::size_t i, int rank) {
    return static_cast<float>((i * 7 + static_cast<std::size_t>(rank) * 13) %
                              17);
  };
  std::vector<std::vector<float>> got(static_cast<std::size_t>(ranks));
  DistRuntime runtime(ranks);
  runtime.run([&](Communicator& comm) {
    ParameterStore& store =
        replicas[static_cast<std::size_t>(comm.rank())]->store;
    std::vector<float> g(n);
    for (std::size_t i = 0; i < n; ++i) g[i] = grad(i, comm.rank());
    store.unflatten_grads(g);
    synchronize_gradients(comm, store, SyncStrategy::kCoalesced);
    got[static_cast<std::size_t>(comm.rank())] = store.flatten_grads();
  });
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int r = 0; r < ranks; ++r) sum += grad(i, r);
    const float mean = static_cast<float>(sum / ranks);
    for (const auto& g : got) mismatches += g.size() != n || g[i] != mean;
  }
  checks.expect(mismatches == 0,
                "synchronize_gradients returns the exact mean of " +
                    std::to_string(ranks) + " ranks' integer gradients (" +
                    std::to_string(n) + " values)");
}

/// Edge counts at threshold 0.5, one event at a time, from predict().
BinaryMetrics serial_edge_counts(const GnnModel& model,
                                 const std::vector<Event>& events) {
  BinaryMetrics m;
  for (const Event& e : events) {
    if (e.num_edges() == 0) continue;
    const std::vector<float> scores =
        model.gnn->predict(e.node_features, e.edge_features, e.graph);
    for (std::size_t i = 0; i < scores.size(); ++i)
      m.add(scores[i] >= 0.5f, e.edge_labels[i] != 0);
  }
  return m;
}

struct TimedRounds {
  std::vector<double> epoch_s;
  std::vector<double> step_interval_s;
  std::size_t epochs = 0;
  std::vector<Round> rounds;  ///< models and results, in order
};

/// Whole rounds until `seconds` have passed (at least one). With `rss`,
/// peak memory is sampled over the first round: every round does the same
/// work, while freed rank and prefetch threads leave allocator arenas that
/// make the process peak creep up with the number of rounds run.
TimedRounds timed_rounds(const TrainWorkload& w, const IgnnConfig& gnn,
                         const GnnTrainConfig& cfg, const Dataset& data,
                         double seconds, RssSampler* rss) {
  TimedRounds t;
  const Clock::time_point t0 = Clock::now();
  do {
    if (rss && t.rounds.empty()) rss->start();
    Round r = run_round(w, gnn, cfg, data, w.epochs_per_round);
    if (rss) rss->stop();
    for (const EpochRecord& e : r.result.epochs)
      t.epoch_s.push_back(e.wall_seconds);
    t.step_interval_s.insert(t.step_interval_s.end(),
                             r.step_intervals_s.begin(),
                             r.step_intervals_s.end());
    t.epochs += r.result.epochs.size();
    t.rounds.push_back(std::move(r));
  } while (seconds_since(t0) < seconds);
  return t;
}

}  // namespace

bool is_train_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

RunResult run_train(const RunArgs& args, Checks& checks) {
  const TrainWorkload& w = *find_workload(args.workload);
  omp_set_num_threads(w.split.omp_threads);
  RunResult result;

  // ---- set-up: inputs, samplers, warm-up round ----
  const DatasetSpec spec = w.ctd ? ctd_spec(w.scale) : ex3_spec(w.scale);
  const Clock::time_point gen_t0 = Clock::now();
  const Dataset data = generate_dataset(spec.name, spec.detector,
                                        w.train_events, w.val_events, 0,
                                        args.seed);
  const double generate_s = seconds_since(gen_t0);
  std::vector<const Event*> all;
  for (const Event& e : data.train) all.push_back(&e);
  for (const Event& e : data.val) all.push_back(&e);
  add_input_identity(result, args.seed, all, w.split);

  IgnnConfig gnn;
  gnn.node_input_dim = spec.detector.node_feature_dim;
  gnn.edge_input_dim = spec.detector.edge_feature_dim;
  gnn.hidden_dim = w.hidden;
  gnn.num_layers = w.layers;
  gnn.mlp_hidden = spec.mlp_hidden_layers - 1;

  GnnTrainConfig cfg;
  cfg.batch_size = kBatch;
  cfg.shadow = ShadowConfig{.depth = kDepth, .fanout = kFanout};
  cfg.bulk_k = kBulkK;
  cfg.lr = w.lr;
  cfg.seed = kTrainSeed;
  cfg.sync = SyncStrategy::kCoalesced;
  cfg.prefetch_depth = w.prefetch_depth;
  cfg.prefetch_threads = static_cast<std::size_t>(
      std::max(1, w.split.prefetch_threads));
  cfg.evaluate_every_epoch = false;

  // GNN edges per epoch: the parent graphs for full-graph training; for
  // ShaDow the sampled subgraphs, estimated by sampling one epoch here.
  double train_edges = 0.0;
  for (const Event& e : data.train)
    train_edges += static_cast<double>(e.num_edges());
  double gnn_edges_per_epoch = train_edges;
  double subgraph_edges_per_root = 0.0;
  double sampler_build_s = 0.0;
  std::vector<std::unique_ptr<MatrixShadowSampler>> samplers;
  if (w.mode != Mode::kFullGraph) {
    const Clock::time_point t0 = Clock::now();
    samplers = build_samplers(data.train);
    sampler_build_s = seconds_since(t0);
    const SampleEpoch est =
        sample_epoch(data.train, samplers, 1, args.seed ^ 0x5eedull, nullptr);
    gnn_edges_per_epoch = est.subgraph_edges;
    subgraph_edges_per_root = est.subgraph_edges / std::max(est.roots, 1.0);
  }
  run_round(w, gnn, cfg, data, 1);  // warm-up: pools, plans, page faults
  const double setup_s = seconds_since(args.process_start);

  // ---- timed part ----
  const double timed_s = args.trace ? args.seconds / 2 : args.seconds;
  RssSampler rss;
  TimedRounds timed = timed_rounds(w, gnn, cfg, data, timed_s, &rss);

  // Traced half: the same rounds with the span recorder on.
  TimedRounds traced;
  TensorPool::Stats pool{};
  MemoryPlanner::Stats plan{};
  SpanTable spans;
  if (args.trace) {
    TraceSession& session = TraceSession::global();
    TensorPool::reset_stats();
    MemoryPlanner::reset_stats();
    session.clear();
    session.start();
    traced = timed_rounds(w, gnn, cfg, data, timed_s, nullptr);
    pool = TensorPool::stats();
    plan = MemoryPlanner::stats();
    if (w.mode != Mode::kFullGraph) {
      const Clock::time_point t0 = Clock::now();
      samplers = build_samplers(data.train);
      sampler_build_s = seconds_since(t0);
      const SampleEpoch probe = sample_epoch(
          data.train, samplers, w.split.ranks, args.seed ^ 0x9e3ull, &checks);
      result.per_layer["sampling.bulk_call_ms"] = median(probe.call_s) * 1e3;
    }
    if (w.mode == Mode::kDdp) check_gradient_sync(gnn, w.split.ranks, checks);
    session.stop();
    spans = SpanTable::from_session(session);
    session.write_json(args.out_dir + "/trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json");
  }

  // ---- output checks ----
  const std::size_t steps_per_epoch =
      expected_steps_per_epoch(w, data.train);
  if (w.mode == Mode::kDdp) {
    // One coalesced all-reduce of every parameter per step, plus one
    // 4-byte loss reduction per epoch.
    std::size_t rounds = 0, wrong = 0, calls = 0, bytes = 0;
    for (const TimedRounds* t : {&timed, &traced}) {
      for (const Round& r : t->rounds) {
        const std::size_t epochs = r.result.epochs.size();
        const std::size_t steps = steps_per_epoch * epochs;
        calls = steps + epochs;
        bytes = (steps * r.model->store.total_size() + epochs) * sizeof(float);
        ++rounds;
        wrong += r.result.comm.all_reduce_calls != calls ||
                 r.result.comm.all_reduce_bytes != bytes;
      }
    }
    checks.expect(wrong == 0,
                  "CommStats calls and bytes equal the prediction (" +
                      std::to_string(calls) + " calls, " +
                      std::to_string(bytes) + " bytes per round) in " +
                      std::to_string(rounds - wrong) + " of " +
                      std::to_string(rounds) + " rounds");
  }
  const Round& first = timed.rounds.front();
  checks.expect(first.result.epochs.back().train_loss <
                    first.result.epochs.front().train_loss,
                "mean training loss falls from " +
                    json_number(first.result.epochs.front().train_loss) +
                    " (first timed epoch) to " +
                    json_number(first.result.epochs.back().train_loss) +
                    " (last)");
  const GnnModel& model = *(args.trace ? traced : timed).rounds.back().model;
  const BinaryMetrics val = evaluate_edges(model, data.val, 0.5f);
  const BinaryMetrics serial = serial_edge_counts(model, data.val);
  checks.expect(serial.true_positives == val.true_positives &&
                    serial.false_positives == val.false_positives &&
                    serial.false_negatives == val.false_negatives &&
                    serial.true_negatives == val.true_negatives,
                "serial TP/FP/FN/TN from predict() equal evaluate_edges(): " +
                    std::to_string(val.true_positives) + "/" +
                    std::to_string(val.false_positives) + "/" +
                    std::to_string(val.false_negatives) + "/" +
                    std::to_string(val.true_negatives));
  std::size_t pos = 0, total = 0;
  for (const Event& e : data.val) {
    for (char l : e.edge_labels) pos += l != 0;
    total += e.edge_labels.size();
  }
  const double p = total ? static_cast<double>(pos) / total : 0.0;
  const double all_positive_f1 = 2.0 * p / (1.0 + p);
  checks.expect(val.f1() > all_positive_f1,
                "validation edge F1 " + json_number(val.f1()) +
                    " beats the all-positive classifier's " +
                    json_number(all_positive_f1));

  std::uint64_t steps = 0;
  for (const TimedRounds* t : {&timed, &traced})
    steps += steps_per_epoch * t->epochs;
  result.attempted = steps;
  result.failed = 0;

  const double epoch_s = median(timed.epoch_s);
  const std::vector<double>& iv = timed.step_interval_s;
  const double tail_p = tail_percentile_for(iv.size());
  std::printf("timed: %zu rounds, %zu epochs, median epoch %.4f s, "
              "%zu step intervals (tail = p%.1f)\n",
              timed.rounds.size(), timed.epochs, epoch_s, iv.size(), tail_p);
  result.set_e2e("throughput_per_s", gnn_edges_per_epoch / epoch_s, "1/s");
  result.set_e2e("edge_f1", val.f1(), "ratio");
  result.set_e2e("latency_p50_ms", median(iv) * 1e3, "ms");
  result.set_e2e("peak_rss_mb", rss.peak_mb(), "MB");
  result.set_e2e("setup_s", setup_s, "s");

  auto& L = result.per_layer;
  L["detector.generate_s"] = generate_s;
  L["train.parent_edges_per_s"] = train_edges / epoch_s;
  L["latency_tail_ms"] =
      (tail_p > 0 ? percentile(iv, tail_p) : percentile(iv, 100)) * 1e3;
  if (!args.trace) return result;

  const double ranks = w.split.ranks;
  const double epochs = static_cast<double>(traced.epochs);
  const double traced_steps = static_cast<double>(steps_per_epoch) * epochs;
  double sample_s = 0, gather_s = 0, stall_s = 0, allreduce_s = 0;
  double calls = 0, bytes = 0, modeled = 0;
  for (const Round& r : traced.rounds) {
    sample_s += r.result.total_phase("sample");
    gather_s += r.result.total_phase("gather");
    stall_s += r.result.total_phase("prefetch_stall");
    allreduce_s += r.result.total_phase("allreduce");
    calls += static_cast<double>(r.result.comm.all_reduce_calls);
    bytes += static_cast<double>(r.result.comm.all_reduce_bytes);
    modeled += r.result.comm.modeled_seconds;
  }
  L["sampling.sampler_build_s"] = sampler_build_s;
  L["sampling.sample_s"] = sample_s / epochs;
  L["sampling.gather_s"] = gather_s / epochs;
  L["sampling.subgraph_edges_per_root"] = subgraph_edges_per_root;
  L["prefetch.stall_s"] = stall_s / epochs;
  L["gnn.forward_s"] = spans.total_s("forward") / (ranks * epochs);
  L["autograd.backward_s"] = spans.total_s("backward") / (ranks * epochs);
  L["nn.step_s"] = spans.self_s("train") / (ranks * epochs);
  L["train.unattributed_s"] = spans.self_s("epoch") / (ranks * epochs);
  L["tensor.pool_hit_rate"] = pool.hit_rate();
  L["tensor.pool_cached_mb"] = static_cast<double>(pool.bytes_cached) / 1e6;
  L["tensor.memplan_reuses_per_step"] =
      static_cast<double>(plan.plan_reuses) / traced_steps;
  L["tensor.memplan_arena_mb"] = static_cast<double>(plan.arena_bytes) / 1e6;
  L["dist.allreduce_s"] = allreduce_s / epochs;
  L["dist.allreduce_calls_per_step"] = calls / traced_steps;
  L["dist.allreduce_bytes_per_step"] = bytes / traced_steps;
  L["dist.allreduce_modeled_s"] = modeled / epochs;
  const double traced_epoch_s = median(traced.epoch_s);
  L["obs.untraced_op_ms"] = epoch_s * 1e3;
  L["obs.traced_op_ms"] = traced_epoch_s * 1e3;
  L["obs.trace_overhead_frac"] = traced_epoch_s / epoch_s - 1.0;
  std::printf("traced: %zu rounds, %zu epochs, median epoch %.4f s "
              "(untraced %.4f s), %zu spans\n",
              traced.rounds.size(), traced.epochs, traced_epoch_s, epoch_s,
              spans.size());
  return result;
}

}  // namespace perfbench
