// Ablation bench for the §IV-A design choices, on the *real* execution
// engine (thread-rank runtime, CPU kernels, scaled mesh model):
//   * halo-exchange overlap on/off (interior/boundary decomposition),
//   * parallelization scheme (sample / spatial / hybrid) at fixed resources,
//   * the same sweep through the analytic model, for comparison.
#include <benchmark/benchmark.h>

#include "core/layers.hpp"
#include "core/model.hpp"
#include "models/models.hpp"
#include "perf/network_cost.hpp"

namespace {

using namespace distconv;

constexpr int kStepsPerRun = 2;

void run_steps(const core::NetworkSpec& spec, const core::Strategy& strategy,
               const core::ModelOptions& options, int ranks) {
  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm, strategy, 11, options);
    Tensor<float> input(model.rt(0).out_shape);
    Rng rng(3);
    input.fill_uniform(rng);
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    model.set_input(0, input);
    for (int i = 0; i < kStepsPerRun; ++i) {
      model.forward();
      model.loss_bce(targets);
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.01f, 0.9f, 0.0f});
    }
  });
}

void bench_overlap(benchmark::State& state) {
  const bool overlap = state.range(0) != 0;
  const auto spec = models::make_mesh_model_test(4, 64);
  const auto strategy = core::Strategy::hybrid(spec.size(), 4, 4);
  core::ModelOptions options;
  options.overlap_halo = overlap;
  for (auto _ : state) run_steps(spec, strategy, options, 4);
  state.SetItemsProcessed(state.iterations() * kStepsPerRun);
  state.SetLabel(overlap ? "halo overlap ON" : "halo overlap OFF");
}

void bench_parallelism(benchmark::State& state) {
  const int gps = static_cast<int>(state.range(0));
  const auto spec = models::make_mesh_model_test(4, 64);
  const auto strategy = core::Strategy::hybrid(spec.size(), 4, gps);
  for (auto _ : state) run_steps(spec, strategy, {}, 4);
  state.SetItemsProcessed(state.iterations() * kStepsPerRun);
  state.SetLabel(gps == 1 ? "sample x4"
                          : (std::to_string(gps) + "-way spatial").c_str());
}

void bench_model_prediction(benchmark::State& state) {
  // Evaluate the analytic model for the same ablation (milliseconds of
  // predicted mini-batch time stored in the counter; wall time here is just
  // the model-evaluation cost, which is itself worth tracking).
  const bool overlap = state.range(0) != 0;
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  perf::NetworkCostOptions options;
  options.overlap_halo = overlap;
  double predicted = 0;
  for (auto _ : state) {
    const auto cost =
        perf::network_cost(spec, strategy, perf::MachineModel::lassen(), options);
    predicted = cost.minibatch_time();
    benchmark::DoNotOptimize(predicted);
  }
  state.counters["predicted_ms"] = predicted * 1e3;
  state.SetLabel(overlap ? "model: overlap ON" : "model: overlap OFF");
}

}  // namespace

BENCHMARK(bench_overlap)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);
BENCHMARK(bench_parallelism)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(bench_model_prediction)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
