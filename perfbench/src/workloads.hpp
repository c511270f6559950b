// The benchmark's workloads. Each runs set-up, a timed part of
// RunArgs::seconds, and its output checks, and fills a RunResult.
#pragma once

#include "common.hpp"

namespace perfbench {

/// train-ctd-shadow, train-ex3-ddp4, train-ctd-fullgraph.
bool is_train_workload(const std::string& name);
RunResult run_train(const RunArgs& args, Checks& checks);

/// serve-ex3.
RunResult run_serve(const RunArgs& args, Checks& checks);

/// Names of the per-layer metrics with their units, in print order. A
/// traced run reports all of them; a layer the workload does not reach
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
