#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

void RssSampler::start() {
  peak_bytes_ = resident_bytes();
  running_ = true;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      const std::uint64_t now = resident_bytes();
      if (now > peak_bytes_.load()) peak_bytes_ = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

void RssSampler::stop() {
  if (!thread_.joinable()) return;
  running_ = false;
  thread_.join();
  const std::uint64_t now = resident_bytes();
  if (now > peak_bytes_.load()) peak_bytes_ = now;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double tail_percentile_for(std::size_t n) {
  if (n < 11) return 0.0;
  const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::min(p, 99.0);
}

void InputHash::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void InputHash::add(const trkx::Event& event) {
  for (const trkx::Hit& h : event.hits) {
    add_bytes(&h.x, sizeof h.x);
    add_bytes(&h.y, sizeof h.y);
    add_bytes(&h.z, sizeof h.z);
    add_bytes(&h.layer, sizeof h.layer);
    add_bytes(&h.particle, sizeof h.particle);
  }
  for (const trkx::TruthParticle& p : event.particles) {
    add_bytes(p.hits.data(), p.hits.size() * sizeof(std::uint32_t));
  }
  for (const trkx::Edge& e : event.graph.edges()) {
    add_bytes(&e.src, sizeof e.src);
    add_bytes(&e.dst, sizeof e.dst);
  }
  add_bytes(event.edge_labels.data(), event.edge_labels.size());
  add_bytes(event.node_features.data(),
            event.node_features.rows() * event.node_features.cols() *
                sizeof(float));
  add_bytes(event.edge_features.data(),
            event.edge_features.rows() * event.edge_features.cols() *
                sizeof(float));
}

std::string InputHash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

bool Checks::expect(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", ok ? "ok    " : "FAILED", what.c_str());
  if (!ok) ++failed_;
  return ok;
}

void RunResult::set_e2e(const std::string& name, double value,
                        const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void RunResult::set_identity(const std::string& key,
                             const std::string& json_value) {
  identity.emplace_back(key, json_value);
}

std::string ThreadSplit::to_json() const {
  std::ostringstream os;
  os << "{\"ranks\": " << ranks << ", \"omp_threads\": " << omp_threads
     << ", \"prefetch_threads\": " << prefetch_threads
     << ", \"serve_workers\": " << serve_workers << "}";
  return os.str();
}

void add_input_identity(RunResult& result, std::uint64_t seed,
                        const std::vector<const trkx::Event*>& events,
                        const ThreadSplit& split) {
  InputHash hash;
  double hits = 0.0, edges = 0.0;
  for (const trkx::Event* e : events) {
    hash.add(*e);
    hits += static_cast<double>(e->num_hits());
    edges += static_cast<double>(e->num_edges());
  }
  const double n = static_cast<double>(std::max<std::size_t>(events.size(), 1));
  result.set_identity("seed", std::to_string(seed));
  result.set_identity("events", std::to_string(events.size()));
  result.set_identity("hits_per_event", json_number(hits / n));
  result.set_identity("edges_per_event", json_number(edges / n));
  result.per_layer["detector.hits_per_event"] = hits / n;
  result.per_layer["detector.edges_per_event"] = edges / n;
  result.set_identity("input_hash", json_string(hash.hex()));
  result.set_identity("thread_split", split.to_json());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
