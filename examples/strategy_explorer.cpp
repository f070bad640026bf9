// Strategy explorer: use the §V performance model to choose parallel
// execution strategies for the paper's networks on a Lassen-like machine —
// without touching the machine (the model needs only layer geometries plus
// the machine description).
//
//   $ ./strategy_explorer
//
// Prints, for several (network, GPU count, mini-batch) scenarios:
//   * the predicted mini-batch time of each uniform hybrid strategy,
//   * the optimizer's per-layer pick (§V-C shortest path / longest paths),
//   * memory feasibility — including the 2K mesh model, which is simply
//     impossible without spatial parallelism.
#include <cstdio>

#include "models/models.hpp"
#include "perf/strategy_opt.hpp"

using namespace distconv;

namespace {

void explore(const char* name, const core::NetworkSpec& spec, int gpus) {
  const auto machine = perf::MachineModel::lassen();
  std::printf("=== %s on %d GPUs ===\n", name, gpus);

  std::printf("%-28s %-14s %-10s\n", "uniform strategy", "predicted", "memory");
  for (int gps : {1, 2, 4, 8, 16}) {
    if (gpus % gps != 0) continue;
    const auto strategy = core::Strategy::hybrid(spec.size(), gpus, gps);
    const auto cost = perf::network_cost(spec, strategy, machine);
    char label[64];
    if (gps == 1) {
      std::snprintf(label, sizeof(label), "sample parallel (x%d)", gpus);
    } else {
      std::snprintf(label, sizeof(label), "%d-way spatial x %d groups", gps,
                    gpus / gps);
    }
    if (cost.memory.feasible) {
      std::printf("%-28s %-14.4f %.1f GiB\n", label, cost.minibatch_time(),
                  cost.memory.total_bytes / double(1ull << 30));
    } else {
      std::printf("%-28s %-14s %.1f GiB (OVER BUDGET)\n", label, "n/a",
                  cost.memory.total_bytes / double(1ull << 30));
    }
  }

  const auto chosen = perf::optimize_strategy(spec, gpus, machine);
  const auto cost = perf::network_cost(spec, chosen, machine);
  std::printf("optimizer pick: %.4fs/minibatch\n", cost.minibatch_time());
  // Summarize the per-layer assignment as runs of identical grids.
  const auto shapes = spec.infer_shapes();
  int run_start = 0;
  for (int i = 1; i <= spec.size(); ++i) {
    if (i == spec.size() || !(chosen.grids[i] == chosen.grids[run_start])) {
      std::printf("  layers %3d..%-3d (%-18s .. %-18s) grid %s\n", run_start,
                  i - 1, spec.layer(run_start).name().c_str(),
                  spec.layer(i - 1).name().c_str(),
                  chosen.grids[run_start].str().c_str());
      run_start = i;
    }
  }
  std::printf("\n");
}

}  // namespace

void channel_advisory(const char* name, const core::NetworkSpec& spec,
                      int gpus) {
  const auto machine = perf::MachineModel::lassen();
  const auto opportunities =
      perf::analyze_channel_opportunities(spec, gpus, machine);
  std::printf("=== %s on %d GPUs: channel/filter parallelism advisory "
              "(modelled, §III-D) ===\n", name, gpus);
  if (opportunities.empty()) {
    std::printf("  none — sample/spatial parallelism wins everywhere\n\n");
    return;
  }
  std::printf("  %zu conv layers would run faster channel-parallel, e.g.:\n",
              opportunities.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, opportunities.size());
       ++i) {
    const auto& opp = opportunities[i];
    std::printf("  %-22s %d-way channels: %.3fms vs best spatial %.3fms\n",
                opp.name.c_str(), opp.channel_ways,
                1e3 * opp.best_channel_cost, 1e3 * opp.best_spatial_cost);
  }
  std::printf("\n");
}

int main() {
  // Strong-scaling regime: few samples, many GPUs.
  explore("mesh 1K model, minibatch 4", models::make_mesh_model_1k(4), 32);
  // Memory-bound regime: the 2K model cannot run sample-parallel at all.
  explore("mesh 2K model, minibatch 2", models::make_mesh_model_2k(2), 16);
  // Branchy DAG: ResNet-50 under strong scaling exercises the longest-path
  // decomposition.
  explore("ResNet-50, minibatch 8", models::make_resnet50(8), 32);
  // Ample samples: sample parallelism should win everywhere.
  explore("ResNet-50, minibatch 256", models::make_resnet50(256), 8);
  // Where would the paper's future-work decomposition pay off?
  channel_advisory("ResNet-50, minibatch 4", models::make_resnet50(4), 16);
  return 0;
}
