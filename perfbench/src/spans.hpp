// Per-layer attribution from the program's span recorder: the spans of
// the global TraceSession are read back from its export, nested per
// thread, and summed by name into total and self time.
#pragma once

#include <string>
#include <vector>

namespace trkx {
class TraceSession;
}

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  double self_us = 0.0;  ///< dur minus the part its direct children cover
};

class SpanTable {
 public:
  /// Snapshot of everything `session` holds, with self times filled in.
  static SpanTable from_session(const trkx::TraceSession& session);

  double total_s(const std::string& name) const;
  double self_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
