// Serving workload: Ex3-like events arrive as serialized records, are
// decoded with load_event and served by ServeServer with a learned-graph
// pipeline trained during set-up. The timed part runs whole rounds, each a
// closed loop over the payloads (throughput) followed by an open loop of
// Poisson arrivals at one fixed rate (latency), so both metrics sample the
// whole run.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <future>
#include <optional>
#include <sstream>

#include "detector/presets.hpp"
#include "io/event_io.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "tensor/pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace trkx;
using serve::ServeResult;

constexpr double kScale = 0.02;
constexpr std::size_t kFitEvents = 4;
constexpr std::size_t kFitValEvents = 1;
/// The served model is part of the system under test, not of the request
/// stream: it is trained on events of a fixed seed, while the payloads
/// come from --seed.
constexpr std::uint64_t kFitSeed = 11;
constexpr std::size_t kPayloadEvents = 64;
constexpr int kWorkers = 2;
/// Closed-loop requests in flight: two per worker, so a worker that
/// finishes finds the next request queued instead of waiting for the
/// submitting thread to collect the oldest one and send another.
constexpr std::size_t kInFlight = 2 * kWorkers;
constexpr int kOmpThreadsPerWorker = 1;
/// Closed-loop passes over the payloads per round.
constexpr std::size_t kClosedPasses = 2;
/// Open-loop arrivals per round: one per payload, so every round serves
/// the same mix in both loops.
constexpr std::size_t kOpenArrivals = kPayloadEvents;
/// At most kOpenArrivals requests are outstanding at once (a round drains
/// before the next begins), so a queue this deep never rejects.
constexpr std::size_t kQueueDepth = kOpenArrivals;
/// Offered rate of the open loop, fixed: about a ninth of the closed-loop
/// throughput of this workload on a 4-vCPU host, so a host that runs the
/// server at half speed still leaves it far from saturation. It is never
/// derived from a measurement of the run itself.
constexpr double kOpenLoopRate = 30.0;
constexpr std::uint64_t kArrivalStreamTag = 0xa77a1ull;

PipelineConfig pipeline_config() {
  PipelineConfig cfg;
  cfg.embedding.epochs = 4;
  cfg.frnn.radius = 0.6f;
  cfg.filter.epochs = 4;
  cfg.gnn.hidden_dim = 16;
  cfg.gnn.num_layers = 2;
  cfg.gnn.mlp_hidden = 1;
  cfg.gnn_train.epochs = 2;
  cfg.gnn_train.batch_size = 64;
  cfg.gnn_train.shadow = {.depth = 2, .fanout = 3};
  cfg.gnn_train.evaluate_every_epoch = false;
  cfg.use_learned_graphs = true;
  return cfg;
}

struct Served {
  std::size_t payload = 0;
  double latency_s = 0.0;  ///< from scheduled send (open) or submit (closed)
  double lag_s = 0.0;      ///< open loop: how late the sender ran
  double decode_s = 0.0;
  ServeResult result;
};

struct Tally {
  std::uint64_t submitted = 0, completed = 0, failed = 0, rejected = 0;
  std::vector<Served> served;
};

Event decode(const std::string& record) {
  TRKX_TRACE_SPAN("bench.decode", "bench");
  std::istringstream is(record);
  return load_event(is);
}

/// Submit one decoded record; a rejection is counted, not thrown.
std::optional<std::future<ServeResult>> submit(serve::ServeServer& server,
                                               Event event, Tally& tally) {
  ++tally.submitted;
  try {
    return server.submit(std::move(event), serve::Priority::kNormal,
                         serve::Deadline());
  } catch (const Error&) {
    ++tally.rejected;
    return std::nullopt;
  }
}

void collect(std::future<ServeResult>& f, Served s, Tally& tally) {
  try {
    s.result = f.get();
    s.latency_s += s.result.latency_seconds;
    ++tally.completed;
    tally.served.push_back(std::move(s));
  } catch (const Error&) {
    ++tally.failed;
  }
}

/// One submitting thread keeps kInFlight requests in flight for `passes`
/// whole passes over the payloads. Appends the duration of each pass, from
/// its first submission to the point the next pass would begin, to
/// `pass_s`; the requests still in flight are collected after the last.
void closed_loop(serve::ServeServer& server,
                 const std::vector<std::string>& records, std::size_t passes,
                 Tally& tally, std::vector<double>& pass_s) {
  struct InFlight {
    std::future<ServeResult> f;
    Served s;
  };
  std::vector<InFlight> ring;
  std::size_t head = 0;
  const std::size_t stop = pass_s.size() + passes;
  Clock::time_point pass_t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t payload = i % records.size();
    if (payload == 0 && i > 0) {
      pass_s.push_back(seconds_since(pass_t0));
      pass_t0 = Clock::now();
      if (pass_s.size() == stop) break;
    }
    Served s;
    s.payload = payload;
    const Clock::time_point d0 = Clock::now();
    Event e = decode(records[payload]);
    s.decode_s = seconds_since(d0);
    auto f = submit(server, std::move(e), tally);
    if (!f) continue;
    if (ring.size() < kInFlight) {
      ring.push_back({std::move(*f), std::move(s)});
      continue;
    }
    collect(ring[head].f, std::move(ring[head].s), tally);
    ring[head] = {std::move(*f), std::move(s)};
    head = (head + 1) % ring.size();
  }
  for (std::size_t k = 0; k < ring.size(); ++k) {
    InFlight& slot = ring[(head + k) % ring.size()];
    collect(slot.f, std::move(slot.s), tally);
  }
}

/// kOpenArrivals Poisson arrivals at kOpenLoopRate, one per payload; the
/// schedule comes from the seed and the round, the sender never waits on
/// completions, and each request is timed from its scheduled send. Returns
/// once every request of the round has completed.
void open_loop(serve::ServeServer& server,
               const std::vector<std::string>& records, std::uint64_t seed,
               std::uint64_t round, Tally& tally) {
  Rng rng = Rng::stream(seed, kArrivalStreamTag, round);
  std::vector<double> at(kOpenArrivals);
  double t = 0.0;
  for (double& a : at) {
    t += -std::log(1.0 - rng.uniform()) / kOpenLoopRate;
    a = t;
  }
  std::vector<std::pair<std::future<ServeResult>, Served>> pending;
  pending.reserve(at.size());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < at.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(at[i]));
    std::this_thread::sleep_until(due);
    Served s;
    s.payload = i % records.size();
    s.lag_s = std::chrono::duration<double>(Clock::now() - due).count();
    const Clock::time_point d0 = Clock::now();
    Event e = decode(records[s.payload]);
    s.decode_s = seconds_since(d0);
    const Clock::time_point sent = Clock::now();
    s.latency_s = std::chrono::duration<double>(sent - due).count();
    auto f = submit(server, std::move(e), tally);
    if (f) pending.emplace_back(std::move(*f), std::move(s));
  }
  for (auto& [f, s] : pending) collect(f, std::move(s), tally);
}

/// Track efficiency from hit truth, by the double-majority rule: a
/// reconstructable particle (>= min_hits hits) is matched when a candidate
/// has > 50% of its hits from the particle and holds > 50% of its hits.
double truth_efficiency(const Event& event,
                        const std::vector<TrackCandidate>& tracks,
                        std::size_t min_hits) {
  std::size_t reconstructable = 0, matched = 0;
  std::vector<char> found(event.particles.size(), 0);
  for (const TrackCandidate& t : tracks) {
    std::vector<std::size_t> count(event.particles.size(), 0);
    for (std::uint32_t h : t.hits) {
      const std::int32_t p = event.hits[h].particle;
      if (p >= 0) ++count[static_cast<std::size_t>(p)];
    }
    for (std::size_t p = 0; p < count.size(); ++p) {
      const std::size_t own = event.particles[p].hits.size();
      if (2 * count[p] > t.hits.size() && 2 * count[p] > own) found[p] = 1;
    }
  }
  for (std::size_t p = 0; p < event.particles.size(); ++p) {
    if (event.particles[p].hits.size() < min_hits) continue;
    ++reconstructable;
    matched += found[p];
  }
  return reconstructable ? static_cast<double>(matched) / reconstructable
                         : 0.0;
}

std::uint64_t rejected_total(const serve::ServeCounters& c) {
  return c.rejected_queue_full + c.rejected_shed_low + c.rejected_admit_fault;
}

struct Timed {
  Tally closed, open;
  std::vector<double> pass_s;  ///< closed loop, one per pass
  double events_per_s(std::size_t per_pass) const {
    return static_cast<double>(per_pass) / median(pass_s);
  }
};

/// Whole rounds of kClosedPasses closed-loop passes and one open-loop
/// segment, until `seconds` have passed.
Timed timed_part(serve::ServeServer& server,
                 const std::vector<std::string>& records, double seconds,
                 std::uint64_t seed) {
  Timed t;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t round = 0; round == 0 || seconds_since(t0) < seconds;
       ++round) {
    closed_loop(server, records, kClosedPasses, t.closed, t.pass_s);
    open_loop(server, records, seed, round, t.open);
  }
  return t;
}

std::vector<double> stage_ms(const Tally& t, serve::Stage stage) {
  std::vector<double> v;
  for (const Served& s : t.served)
    v.push_back(s.result.stage_seconds[static_cast<int>(stage)] * 1e3);
  return v;
}

}  // namespace

RunResult run_serve(const RunArgs& args, Checks& checks) {
  omp_set_num_threads(kOmpThreadsPerWorker);
  RunResult result;
  const ThreadSplit split{.ranks = 1, .omp_threads = kOmpThreadsPerWorker,
                          .prefetch_threads = 0, .serve_workers = kWorkers};

  // ---- set-up: inputs, serialized records, pipeline, server, warm-up ----
  const DatasetSpec spec = ex3_spec(kScale);
  const Clock::time_point gen_t0 = Clock::now();
  const Dataset data = generate_dataset(spec.name, spec.detector, kFitEvents,
                                        kFitValEvents, 0, kFitSeed);
  const std::vector<Event> payloads =
      generate_dataset(spec.name, spec.detector, 0, 0, kPayloadEvents,
                       args.seed)
          .test;
  const double generate_s = seconds_since(gen_t0);
  std::vector<const Event*> all;
  for (const Event& e : data.train) all.push_back(&e);
  for (const Event& e : data.val) all.push_back(&e);
  for (const Event& e : payloads) all.push_back(&e);
  add_input_identity(result, args.seed, all, split);
  std::vector<std::string> records;
  for (const Event& e : payloads) {
    std::ostringstream os;
    save_event(os, e);
    records.push_back(os.str());
  }

  const PipelineConfig cfg = pipeline_config();
  const std::size_t node_dim = spec.detector.node_feature_dim;
  const std::size_t edge_dim = spec.detector.edge_feature_dim;
  auto pipeline = std::make_unique<TrackingPipeline>(node_dim, edge_dim, cfg);
  const Clock::time_point fit_t0 = Clock::now();
  pipeline->fit(data.train, data.val);
  const double fit_s = seconds_since(fit_t0);
  serve::ReplicaSet replicas(node_dim, edge_dim, cfg);
  replicas.install(std::move(pipeline), "perfbench");
  serve::ServeConfig serve_cfg;
  serve_cfg.workers = kWorkers;
  serve_cfg.queue_depth = kQueueDepth;
  serve_cfg.default_deadline_ms = 0;
  serve_cfg.stage_timeout_ms = 0;
  serve_cfg.b_field_tesla = spec.detector.b_field;
  // The workload measures the full-quality path: a stall of the host must
  // not switch the ladder on and change what is served.
  serve_cfg.degrade.max_level = 0;
  serve::ServeServer server(replicas, serve_cfg);
  server.start();
  {
    Tally warm;
    std::vector<double> warm_passes;
    closed_loop(server, records, 1, warm, warm_passes);  // one pass
  }
  const double setup_s = seconds_since(args.process_start);

  // ---- timed part ----
  const double timed_s = args.trace ? args.seconds / 2 : args.seconds;
  const serve::ServeCounters before = server.counters();
  RssSampler rss;
  rss.start();
  Timed timed = timed_part(server, records, timed_s, args.seed);
  rss.stop();
  Timed traced;
  SpanTable spans;
  if (args.trace) {
    TraceSession& session = TraceSession::global();
    TensorPool::reset_stats();
    session.clear();
    session.start();
    traced = timed_part(server, records, timed_s, args.seed);
    session.stop();
    const TensorPool::Stats pool = TensorPool::stats();
    result.per_layer["tensor.pool_hit_rate"] = pool.hit_rate();
    result.per_layer["tensor.pool_cached_mb"] =
        static_cast<double>(pool.bytes_cached) / 1e6;
    spans = SpanTable::from_session(session);
    session.write_json(args.out_dir + "/trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json");
  }
  const serve::ServeCounters after = server.counters();
  server.stop();

  // ---- output checks ----
  const auto replica = replicas.acquire();
  const TrackingPipeline& reference = *replica->pipeline;
  std::vector<PipelineOutput> expected;
  BinaryMetrics edges;
  std::size_t efficiency_mismatch = 0;
  for (const Event& e : payloads) {
    expected.push_back(reference.reconstruct(e));
    edges.merge(expected.back().edge_metrics);
    const TrackingMetrics scored =
        score_tracks(e, expected.back().tracks, cfg.track);
    efficiency_mismatch +=
        truth_efficiency(e, expected.back().tracks, cfg.track.min_hits) !=
        scored.efficiency();
  }
  checks.expect(efficiency_mismatch == 0,
                "track efficiency from hit truth equals score_tracks() on " +
                    std::to_string(payloads.size()) + " events");
  Tally total;
  for (const Tally* t : {&timed.closed, &timed.open, &traced.closed,
                         &traced.open}) {
    total.submitted += t->submitted;
    total.completed += t->completed;
    total.failed += t->failed;
    total.rejected += t->rejected;
  }
  std::size_t track_mismatch = 0, shared_hits = 0, degraded = 0, served = 0;
  int degrade_max = 0;
  for (const Tally* t : {&timed.closed, &timed.open, &traced.closed,
                         &traced.open}) {
    for (const Served& s : t->served) {
      ++served;
      const std::vector<TrackCandidate>& want = expected[s.payload].tracks;
      const std::vector<TrackCandidate>& got = s.result.tracks;
      bool same = want.size() == got.size();
      for (std::size_t k = 0; same && k < got.size(); ++k)
        same = want[k].hits == got[k].hits;
      track_mismatch += !same;
      std::vector<char> used(payloads[s.payload].num_hits(), 0);
      for (const TrackCandidate& c : got)
        for (std::uint32_t h : c.hits) shared_hits += used[h]++ != 0;
      degraded += s.result.degrade_level != 0 || s.result.fit_skipped;
      degrade_max = std::max(degrade_max, s.result.degrade_level);
    }
  }
  checks.expect(track_mismatch == 0,
                "tracks of all " + std::to_string(served) +
                    " served events equal TrackingPipeline::reconstruct()");
  checks.expect(shared_hits == 0, "no hit appears in two served tracks");
  checks.expect(degraded == 0, "no request ran degraded");
  checks.expect(total.submitted ==
                    total.completed + total.failed + total.rejected,
                "benchmark tally: submitted " +
                    std::to_string(total.submitted) + " = completed " +
                    std::to_string(total.completed) + " + failed " +
                    std::to_string(total.failed) + " + rejected " +
                    std::to_string(total.rejected));
  const std::uint64_t c_completed = after.completed - before.completed;
  const std::uint64_t c_failed = after.failed - before.failed;
  const std::uint64_t c_rejected = rejected_total(after) - rejected_total(before);
  const std::uint64_t c_accepted = after.accepted - before.accepted;
  checks.expect(total.submitted == c_accepted + c_rejected &&
                    c_accepted == c_completed + c_failed &&
                    c_completed == total.completed,
                "ServeCounters: submitted " + std::to_string(total.submitted) +
                    " = completed " + std::to_string(c_completed) +
                    " + failed " + std::to_string(c_failed) + " + rejected " +
                    std::to_string(c_rejected));

  result.attempted = total.submitted;
  result.failed = total.failed + total.rejected;

  std::vector<double> latency_ms, lag_ms, decode_ms, wait_ms;
  for (const Served& s : timed.open.served) latency_ms.push_back(s.latency_s * 1e3);
  const double tail_p = tail_percentile_for(latency_ms.size());
  const double throughput = timed.events_per_s(records.size());
  std::printf("timed: closed loop %llu requests in %zu passes; open loop %llu "
              "requests at %.0f/s (tail = p%.1f)\n",
              static_cast<unsigned long long>(timed.closed.completed),
              timed.pass_s.size(),
              static_cast<unsigned long long>(timed.open.completed),
              kOpenLoopRate, tail_p);
  result.set_e2e("throughput_per_s", throughput, "1/s");
  result.set_e2e("edge_f1", edges.f1(), "ratio");
  result.set_e2e("latency_p50_ms", median(latency_ms), "ms");
  result.set_e2e("peak_rss_mb", rss.peak_mb(), "MB");
  result.set_e2e("setup_s", setup_s, "s");

  auto& L = result.per_layer;
  L["detector.generate_s"] = generate_s;
  L["pipeline.fit_s"] = fit_s;
  L["latency_tail_ms"] = percentile(latency_ms, tail_p);
  if (!args.trace) return result;

  // Per-request layer figures come from the traced half.
  for (const Tally* t : {&traced.closed, &traced.open})
    for (const Served& s : t->served) {
      decode_ms.push_back(s.decode_s * 1e3);
      wait_ms.push_back((s.result.latency_seconds -
                         s.result.total_seconds()) * 1e3);
    }
  for (const Served& s : traced.open.served) lag_ms.push_back(s.lag_s * 1e3);
  const double wait_tail_p = tail_percentile_for(wait_ms.size());
  L["io.decode_ms"] = median(decode_ms);
  L["serve.queue_wait_ms_p50"] = median(wait_ms);
  L["serve.queue_wait_ms_tail"] = percentile(wait_ms, wait_tail_p);
  L["serve.generator_lag_ms"] =
      percentile(lag_ms, tail_percentile_for(lag_ms.size()));
  L["serve.degrade_level_max"] = degrade_max;
  Tally both;
  for (const Tally* t : {&traced.closed, &traced.open})
    both.served.insert(both.served.end(), t->served.begin(), t->served.end());
  L["pipeline.embed_ms"] = median(stage_ms(both, serve::Stage::kEmbed));
  L["pipeline.filter_ms"] = median(stage_ms(both, serve::Stage::kFilter));
  L["pipeline.gnn_ms"] = median(stage_ms(both, serve::Stage::kGnn));
  L["pipeline.build_ms"] = median(stage_ms(both, serve::Stage::kBuild));
  L["pipeline.fit_ms"] = median(stage_ms(both, serve::Stage::kFit));
  double candidate = 0.0, kept = 0.0;
  {
    TRKX_TRACE_SPAN("bench.edge_count_probe", "bench");
    for (const Event& e : payloads) {
      Event copy = e;
      reference.embed_stage(copy);
      candidate += static_cast<double>(copy.num_edges());
      reference.filter_stage(copy, 1.0f);
      kept += static_cast<double>(copy.num_edges());
    }
  }
  L["pipeline.candidate_edges_per_event"] =
      candidate / static_cast<double>(payloads.size());
  L["pipeline.kept_edges_per_event"] =
      kept / static_cast<double>(payloads.size());
  const double traced_throughput = traced.events_per_s(records.size());
  L["obs.untraced_op_ms"] = 1e3 / throughput;
  L["obs.traced_op_ms"] = 1e3 / traced_throughput;
  L["obs.trace_overhead_frac"] = throughput / traced_throughput - 1.0;
  std::printf("traced: closed loop %.2f events/s (untraced %.2f), %zu spans, "
              "%zu decode spans\n",
              traced_throughput, throughput, spans.size(),
              spans.count("bench.decode"));
  return result;
}

}  // namespace perfbench
