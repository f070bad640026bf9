// Allreduce/backprop overlap ablation: run the *same* training step with the
// gradient completion ops enqueued after backprop and drained at once, and
// with them enqueued per layer as backprop retires each one
// (ModelOptions::overlap_allreduce); compare the measured hidden fraction of
// the allreduce time against the §V-B greedy model's estimate ("we estimate
// allreduce overlap … greedily; only one allreduce at a time is considered
// to run") on mesh-like strong-scaling configurations.
//
//   hidden (measured)  = 1 − exposed / t_complete, where both terms are the
//                        post-backprop gradient-completion time *inside* the
//                        step (Model::last_grad_completion_seconds): the
//                        after-backprop completion for t_complete, the
//                        overlapped final drain for exposed — measured the
//                        same way, so rank skew cancels instead of biasing
//                        the ratio;
//   hidden (predicted) = 1 − allreduce_exposed / Σ BPa from network_cost
//                        with overlap_allreduce on vs off.
//
// With DC_KERNEL_CALIBRATION set, predictions price kernels with measured
// GFLOP/s; otherwise an empirical table is measured in-process, as in
// perfmodel_validation.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/args.hpp"
#include "bench/kernel_shapes.hpp"
#include "bench/pricing.hpp"
#include "comm/collectives.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"
#include "perf/network_cost.hpp"

namespace {

using namespace distconv;
using bench::time_average;

/// A shrunk mesh-like tower: stride-2 stem then deep 3×3 stages, so late
/// layers have sizable weight tensors for the allreduce to hide while early
/// layers still have backprop compute to hide them behind.
core::NetworkSpec mesh_tower(const Shape4& in_shape) {
  core::NetworkBuilder nb;
  const int in = nb.input(in_shape);
  int x = nb.conv_bn_relu("c1", in, 16, 3, 2);
  x = nb.conv_bn_relu("c2", x, 32, 3, 1);
  x = nb.conv_bn_relu("c3", x, 32, 3, 1);
  x = nb.conv_bn_relu("c4", x, 48, 3, 1);
  x = nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

struct Measured {
  double step_block = 0;  ///< blocking full step (max over ranks)
  double complete = 0;    ///< in-step blocking completion phase (max)
  double step_olap = 0;   ///< overlapped full step (max)
  double exposed = 0;     ///< overlapped engine drain tail (max)
};

Measured run_case(const core::NetworkSpec& spec, const core::Strategy& strategy,
                  int ranks, const Shape4& in_shape, int warmup, int reps) {
  Measured m;
  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    Tensor<float> input(in_shape);
    Rng rng(3);
    input.fill_uniform(rng);

    core::ModelOptions block_opts;
    block_opts.overlap_allreduce = false;
    core::Model block(spec, comm, strategy, 7, block_opts);
    Tensor<float> targets(block.rt(block.output_layer()).out_shape);
    Rng trng(4);
    targets.fill_uniform(trng, 0.0f, 1.0f);

    auto step = [&](core::Model& model) {
      model.set_input(0, input);
      model.forward();
      model.loss_bce(targets);
      model.backward();
    };

    // Time full steps and accumulate the in-step completion phase (blocking
    // sweep vs engine drain) over the same iterations.
    auto measure = [&](core::Model& model, double& t_step, double& t_done) {
      for (int i = 0; i < warmup; ++i) step(model);
      t_step = 0;
      t_done = 0;
      for (int i = 0; i < reps; ++i) {
        t_step += time_average([&] { step(model); }, 0, 1);
        t_done += model.last_grad_completion_seconds();
      }
      t_step /= reps;
      t_done /= reps;
    };

    double t_block = 0, t_complete = 0;
    measure(block, t_block, t_complete);
    comm::allreduce(comm, &t_block, 1, comm::ReduceOp::kMax);
    comm::allreduce(comm, &t_complete, 1, comm::ReduceOp::kMax);
    if (comm.rank() == 0) {
      m.step_block = t_block;
      m.complete = t_complete;
    }

    core::ModelOptions olap_opts;
    olap_opts.overlap_allreduce = true;
    core::Model olap(spec, comm, strategy, 7, olap_opts);
    double t_olap = 0, t_exposed = 0;
    measure(olap, t_olap, t_exposed);
    comm::allreduce(comm, &t_olap, 1, comm::ReduceOp::kMax);
    comm::allreduce(comm, &t_exposed, 1, comm::ReduceOp::kMax);
    if (comm.rank() == 0) {
      m.step_olap = t_olap;
      m.exposed = t_exposed;
    }
  });
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_harness_args(argc, argv);
  const int warmup = bench::warmup_runs(args);
  const int reps = bench::timed_runs(args);
  const int ranks = 4;
  const Shape4 in_shape =
      args.smoke ? Shape4{2, 8, 16, 16} : Shape4{8, 8, 32, 32};
  const core::NetworkSpec spec = mesh_tower(in_shape);

  // Kernel pricing for the prediction: the DC_KERNEL_CALIBRATION table when
  // present, else rates measured in-process — either way scaled by the CPU
  // timesharing factor when rank threads outnumber cores (CI boxes), as in
  // ablation_channel_parallel.
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const double oversub = ranks > hw ? double(ranks) / hw : 1.0;
  if (oversub > 1.0) {
    std::printf("note: %d rank threads on %d core(s) — predictions scaled by "
                "the %.1fx timesharing factor\n",
                ranks, hw, oversub);
  }
  std::unique_ptr<perf::ComputeModel> owned = bench::make_pricing_model(
      oversub, /*budget_threads=*/std::max(1, hw / ranks), warmup, reps);

  const bench::CommFit fit = bench::fit_comm(warmup, reps);
  perf::MachineModel machine;
  machine.gpus_per_node = ranks;
  machine.intra = {fit.alpha, fit.beta};
  machine.inter = machine.intra;
  machine.ring_hop_latency = fit.alpha;
  machine.node_collective_bandwidth = fit.beta > 0 ? 1.0 / fit.beta : 1e12;
  machine.kernel_overhead = 0;
  std::printf("fitted comm: alpha = %.2f us, beta = %.3f ns/byte\n\n",
              fit.alpha * 1e6, fit.beta * 1e9);

  struct Case {
    const char* name;
    ProcessGrid grid;
  };
  const std::vector<Case> cases{
      {"sample x4", ProcessGrid{4, 1, 1, 1}},
      {"spatial 2x2", ProcessGrid{1, 1, 2, 2}},
      {"hybrid 2x(2x1)", ProcessGrid{2, 1, 2, 1}},
  };

  std::printf("%-16s %-11s %-11s %-11s %-11s %-9s %-9s\n", "strategy",
              "step block", "step olap", "complete", "exposed", "hidden",
              "hidden*");
  std::printf("%-16s %-11s %-11s %-11s %-11s %-9s %-9s\n", "", "(ms)", "(ms)",
              "(ms)", "(ms)", "(meas)", "(model)");
  bool any_hidden = false;
  for (const auto& c : cases) {
    const core::Strategy strategy =
        core::Strategy::uniform(spec.size(), c.grid);
    const Measured m =
        run_case(spec, strategy, ranks, in_shape, warmup, reps);

    perf::NetworkCostOptions on, off;
    on.overlap_allreduce = true;
    off.overlap_allreduce = false;
    const perf::NetworkCost cost_on =
        perf::network_cost(spec, strategy, machine, on, owned.get());
    const perf::NetworkCost cost_off =
        perf::network_cost(spec, strategy, machine, off, owned.get());
    const double ar_pred =
        cost_off.backward - cost_on.backward + cost_on.allreduce_exposed;
    const double hidden_pred =
        ar_pred > 0 ? 1.0 - cost_on.allreduce_exposed / ar_pred : 1.0;

    const double hidden =
        m.complete > 0 ? std::clamp(1.0 - m.exposed / m.complete, 0.0, 1.0)
                       : 1.0;
    if (hidden > 0.5) any_hidden = true;
    std::printf("%-16s %-11.3f %-11.3f %-11.3f %-11.3f %-9.2f %-9.2f\n",
                c.name, m.step_block * 1e3, m.step_olap * 1e3,
                m.complete * 1e3, m.exposed * 1e3, hidden, hidden_pred);
  }
  std::printf("\nhidden  = fraction of the blocking completion phase the "
              "engine hid behind backprop compute\nhidden* = the greedy "
              "single-channel model's estimate (network_cost overlap on vs "
              "off)\n");
  if (!any_hidden) {
    std::printf("warning: no configuration hid most of its allreduce time — "
                "expected on an oversubscribed/noisy host, rerun on a quiet "
                "machine\n");
  }

  // --- registry-derived step attribution -----------------------------------
  // The same overlap story told by the observability registry: a short
  // instrumented training run on the spatial grid, then the per-rank
  // compute / exposed-comm / completion-tail split straight from the
  // metrics snapshot.
  {
    const bool metrics_were_on = obs::metrics::enabled();
    obs::metrics::set_enabled(true);
    obs::metrics::reset();
    const int steps = args.smoke ? 2 : 4;
    comm::World world(ranks);
    world.run([&](comm::Comm& comm) {
      core::Model model(spec, comm,
                        core::Strategy::uniform(spec.size(),
                                                ProcessGrid{1, 1, 2, 2}),
                        7);
      core::Trainer trainer(model, core::TrainerOptions{});
      Tensor<float> input(in_shape);
      Rng rng(5);
      input.fill_uniform(rng);
      Tensor<float> targets(model.rt(model.output_layer()).out_shape);
      Rng trng(6);
      targets.fill_uniform(trng, 0.0f, 1.0f);
      for (int s = 0; s < steps; ++s) trainer.step_bce(input, targets);
    });
    const obs::metrics::Snapshot snap = obs::metrics::snapshot();
    std::printf("\nstep attribution (spatial 2x2, overlapped engine, %d "
                "steps, per rank):\n",
                steps);
    std::printf("%-6s %-10s %-10s %-10s %-10s\n", "rank", "wall ms",
                "compute%", "exposed%", "tail%");
    for (int r = 0; r < ranks; ++r) {
      const double wall = double(snap.counter_for(r, "step.wall.ns"));
      if (wall <= 0) continue;
      const double compute = double(snap.counter_for(r, "step.compute.ns"));
      const double exposed = double(snap.counter_for(r, "step.exposed.ns"));
      const double tail = double(snap.counter_for(r, "step.tail.ns"));
      std::printf("%-6d %-10.3f %-10.1f %-10.1f %-10.1f\n", r, wall / 1e6,
                  100.0 * compute / wall, 100.0 * exposed / wall,
                  100.0 * tail / wall);
    }
    if (!metrics_were_on) obs::metrics::set_enabled(false);
  }
  return 0;
}
