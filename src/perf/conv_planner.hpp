// Names kept only for perfbench/driver.cpp, which still prints the planner
// mode and clears the plan cache before each setup. kAuto now resolves in
// kernels::resolve_conv_algo with a layer-constant rule, so no planner runs
// and there is no cache. Delete this header with the benchmark's next change.
#pragma once

namespace distconv::perf {

enum class ConvPlanMode { kModel, kMeasure, kOff };

/// Always kOff: no planner runs.
inline ConvPlanMode conv_plan_mode() { return ConvPlanMode::kOff; }

/// No-op: there is no plan cache.
inline void clear_conv_plan_cache() {}

}  // namespace distconv::perf
