#include "spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

/// Value after `"key":` in one exported event line.
double field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(k);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + pos + k.size(), nullptr);
}

std::string name_of(const std::string& line) {
  const std::string k = "\"name\":\"";
  const std::size_t pos = line.find(k);
  if (pos == std::string::npos) return {};
  const std::size_t end = line.find('"', pos + k.size());
  return line.substr(pos + k.size(), end - pos - k.size());
}

// Exported timestamps carry six significant digits; a span that starts
// within this many microseconds of the enclosing span's end is taken as
// its sibling, not its child.
constexpr double kNestSlackUs = 20.0;

}  // namespace

SpanTable SpanTable::from_session(const trkx::TraceSession& session) {
  std::ostringstream os;
  session.write_json(os);
  std::istringstream is(os.str());
  SpanTable table;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;
    SpanRecord s;
    s.name = name_of(line);
    s.start_us = field(line, "ts");
    s.dur_us = field(line, "dur");
    s.tid = static_cast<int>(field(line, "tid"));
    s.self_us = s.dur_us;
    table.spans_.push_back(std::move(s));
  }
  // Spans are RAII scopes, so per thread they nest: walk each thread's
  // spans by start time (longest first on ties) with a stack of open
  // ancestors and charge every span's duration to its direct parent.
  std::map<int, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < table.spans_.size(); ++i)
    by_thread[table.spans_[i].tid].push_back(i);
  for (auto& [tid, idx] : by_thread) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      const SpanRecord& x = table.spans_[a];
      const SpanRecord& y = table.spans_[b];
      return x.start_us != y.start_us ? x.start_us < y.start_us
                                      : x.dur_us > y.dur_us;
    });
    std::vector<std::size_t> open;
    for (std::size_t i : idx) {
      SpanRecord& s = table.spans_[i];
      while (!open.empty()) {
        const SpanRecord& top = table.spans_[open.back()];
        if (s.start_us >= top.start_us + top.dur_us - kNestSlackUs)
          open.pop_back();
        else
          break;
      }
      if (!open.empty()) table.spans_[open.back()].self_us -= s.dur_us;
      open.push_back(i);
    }
  }
  for (SpanRecord& s : table.spans_) s.self_us = std::max(0.0, s.self_us);
  return table;
}

double SpanTable::total_s(const std::string& name) const {
  double t = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) t += s.dur_us;
  return t * 1e-6;
}

double SpanTable::self_s(const std::string& name) const {
  double t = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) t += s.self_us;
  return t * 1e-6;
}

std::size_t SpanTable::count(const std::string& name) const {
  std::size_t n = 0;
  for (const SpanRecord& s : spans_) n += s.name == name;
  return n;
}

}  // namespace perfbench
