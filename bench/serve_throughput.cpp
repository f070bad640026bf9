// Closed-loop serving benchmark: synthetic clients with Poisson arrivals
// drive the distributed inference server, and the harness reports measured
// throughput and p50/p99 latency per batching policy, next to the
// forward-only cost model's ServingEstimate for the same (strategy, policy)
// pair.
//
// Policies compared (the max-batch / max-delay knobs of serve::Batcher):
//   no-batching — max_batch 1                    (a latency floor)
//   greedy      — max_batch B, max_delay 0       (batch whatever is queued)
//   max-delay   — max_batch B, max_delay D µs    (hold for fuller batches)
//
// The serving strategy itself comes from the §V-C optimizer under the
// forward-only objective (perf::Objective::kInference), so this harness also
// demonstrates the optimizer recommending serving grids.
//
// The fleet section then carves the same world into two replica groups
// behind a serve::Router, runs the SLO-chosen policy
// (serve::choose_serving_policy over perf::estimate_serving), and checks
// every routed response bitwise against the single-rank oracle — the
// replica-group load path must not perturb a single logit.
//
//   $ ./serve_throughput [--smoke] [--json BENCH_serve.json]
//
// --json dumps every measured number in the distconv-bench-serve-v1 schema;
// tools/check_bench compares such a dump against the committed baseline in
// CI (see README "Fleet-scale serving").
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/args.hpp"
#include "comm/collectives.hpp"
#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "perf/strategy_opt.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/slo.hpp"

namespace {

using namespace distconv;

struct Policy {
  const char* name;
  int max_batch;
  std::int64_t max_delay_us;
};

struct Config {
  int ranks = 4;
  std::int64_t batch = 8;  ///< model dispatch capacity
  int classes = 10;
  std::int64_t image = 32;
  int requests = 512;
  double arrival_rate = 2000.0;  ///< Poisson λ, requests/second
  int fleet_replicas = 2;
  bool smoke = false;  ///< CI shape: deterministic preloaded fleet traffic
};

core::NetworkSpec classifier(const Config& cfg) {
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{cfg.batch, 3, cfg.image, cfg.image});
  int x = nb.conv_bn_relu("b1", in, 16, 3, 2);
  x = nb.conv_bn_relu("b2", x, 24, 3, 1);
  x = nb.conv_bn_relu("b3", x, 32, 3, 1);
  x = nb.global_avg_pool("gap", x);
  x = nb.fully_connected("fc", x, cfg.classes, /*bias=*/true);
  return nb.take();
}

struct PolicyResult {
  double seconds = 0;  ///< first submit → last completion
  serve::ServerStats stats;
};

PolicyResult run_policy(const Config& cfg, const Policy& policy,
                        const core::Strategy& strategy,
                        const std::string& checkpoint_blob) {
  serve::ServeOptions opts;
  opts.batcher.max_batch = policy.max_batch;
  opts.batcher.max_delay_us = policy.max_delay_us;
  opts.top_k = 3;
  serve::Server server(opts);

  PolicyResult result;
  // Hold the clients until the serving model is actually up (built, loaded,
  // inside serve()) so startup cost cannot leak into measured latency.
  std::promise<void> server_up;
  std::shared_future<void> up = server_up.get_future().share();
  std::thread client([&] {
    // Open-loop Poisson arrivals: inter-arrival gaps ~ Exp(λ); every client
    // waits for its own completion at the end (closed at the run level).
    up.wait();
    Rng rng(4242);
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(cfg.requests);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < cfg.requests; ++i) {
      Tensor<float> sample(Shape4{1, 3, cfg.image, cfg.image});
      sample.fill_uniform(rng, -1.0f, 1.0f);
      futures.push_back(server.submit(std::move(sample)));
      const double gap = -std::log(std::max(1e-12, 1.0 - rng.uniform())) /
                         cfg.arrival_rate;
      std::this_thread::sleep_for(std::chrono::duration<double>(gap));
    }
    for (auto& f : futures) f.wait();
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    server.shutdown();
  });

  comm::World world(cfg.ranks);
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec spec = classifier(cfg);
    core::Model model(spec, comm, strategy, /*seed=*/7);
    std::istringstream in(checkpoint_blob);
    core::load_checkpoint(model, in);
    comm::barrier(comm);  // every rank ready to serve
    if (comm.rank() == 0) server_up.set_value();
    server.serve(model);
  });
  client.join();
  result.stats = server.stats();
  return result;
}

struct FleetResult {
  serve::SloDecision slo;
  int requests = 0;  ///< actual fleet request count (wave-aligned)
  double seconds = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  double p50_seconds = 0;
  double p99_seconds = 0;
  bool oracle_match = true;
  int mismatches = 0;
};

/// Score each sample alone through a single-rank model restored from the
/// same checkpoint: the bitwise reference for any batching / routing.
std::vector<std::vector<serve::Prediction>> run_oracle(
    const Config& cfg, const std::string& checkpoint_blob,
    const std::vector<Tensor<float>>& samples, int top_k) {
  std::vector<std::vector<serve::Prediction>> topk;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec spec = classifier(cfg);
    core::Model model(spec, comm,
                      core::Strategy::sample_parallel(spec.size(), 1), 7);
    std::istringstream in(checkpoint_blob);
    core::load_checkpoint(model, in);
    const Shape4 in_shape = model.rt(0).out_shape;
    for (const auto& s : samples) {
      Tensor<float> input(in_shape);
      input.zero();
      std::copy(s.data(), s.data() + s.size(), input.data());
      model.set_input(0, input);
      model.forward(core::Mode::kInference);
      const Tensor<float> logits = model.gather_output(model.output_layer());
      topk.push_back(serve::topk_softmax(logits.data(), cfg.classes, top_k));
    }
  });
  return topk;
}

FleetResult run_fleet(const Config& cfg, const perf::MachineModel& machine,
                      const std::string& checkpoint_blob) {
  core::NetworkSpec spec = classifier(cfg);
  const int group_ranks = cfg.ranks / cfg.fleet_replicas;

  // Per-replica grid from the forward-only objective, sized to one group.
  perf::OptimizerOptions opt;
  opt.objective = perf::Objective::kInference;
  const core::Strategy strategy =
      perf::optimize_strategy(spec, group_ranks, machine, opt);

  // SLO target: the cost model's batch latency plus a generous fill window.
  // The model is calibrated against the paper's machine, not this container,
  // so the target drives the *policy choice* (max_delay / deadline /
  // max_queue); measured compliance is reported, bitwise correctness gated.
  FleetResult result;
  const double floor_s = 0.1;
  const perf::InferenceCost base_cost =
      perf::inference_cost(spec, strategy, machine);
  const double target =
      std::max(4.0 * base_cost.batch_latency(), floor_s);
  result.slo = serve::choose_serving_policy(spec, strategy, machine, target,
                                            cfg.fleet_replicas);

  // Request count. Smoke (the CI regression-gate shape) needs run-to-run
  // stable latencies: traffic is preloaded onto the queues before serving
  // starts, so depth balancing alternates deterministically, every replica
  // gets an exact multiple of max_batch, and every dispatched batch is full
  // — no partial batch ever waits out the policy's max_delay (an open-loop
  // tail that strands 1–3 requests turns p50/p99 into a coin flip on
  // arrival timing). The preload is capped by the policy's own per-replica
  // max_queue. Non-smoke keeps the realistic open-loop Poisson clients.
  const int batches_per_replica =
      std::max<int>(1, static_cast<int>(result.slo.batcher.max_queue /
                                        result.slo.batcher.max_batch));
  const int wave = cfg.fleet_replicas * result.slo.batcher.max_batch;
  const int total =
      cfg.smoke ? wave * batches_per_replica
                : std::max(wave, cfg.requests / wave * wave);
  result.requests = total;

  // Deterministic request set, pregenerated so the oracle scores the exact
  // bytes the router serves.
  std::vector<Tensor<float>> samples;
  Rng rng(4242);
  for (int i = 0; i < total; ++i) {
    Tensor<float> sample(Shape4{1, 3, cfg.image, cfg.image});
    sample.fill_uniform(rng, -1.0f, 1.0f);
    samples.push_back(std::move(sample));
  }
  const int top_k = 3;
  const auto oracle = run_oracle(cfg, checkpoint_blob, samples, top_k);

  serve::Router router;
  serve::FleetModel fm;
  fm.tag = "classifier";
  fm.spec = std::move(spec);
  fm.strategy = strategy;
  fm.checkpoint = checkpoint_blob;
  fm.opts.batcher = result.slo.batcher;
  fm.opts.top_k = top_k;
  fm.seed = 7;
  fm.replicas = cfg.fleet_replicas;
  router.add_model(std::move(fm));

  std::promise<void> fleet_up;
  std::shared_future<void> up = fleet_up.get_future().share();
  std::vector<std::future<serve::InferenceResult>> futures(samples.size());
  const auto submit_one = [&](std::size_t i) {
    Tensor<float> copy(samples[i].shape());
    std::copy(samples[i].data(), samples[i].data() + samples[i].size(),
              copy.data());
    futures[i] = router.submit("classifier", std::move(copy));
  };
  if (cfg.smoke) {
    // Preload: queues only grow, so the router's depth balancing splits the
    // requests exactly in half and every batch dispatches full (see above).
    for (std::size_t i = 0; i < samples.size(); ++i) submit_one(i);
  }
  std::thread client([&] {
    up.wait();
    Rng gaps(171717);
    const auto t0 = std::chrono::steady_clock::now();
    if (!cfg.smoke) {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        submit_one(i);
        const double gap = -std::log(std::max(1e-12, 1.0 - gaps.uniform())) /
                           cfg.arrival_rate;
        std::this_thread::sleep_for(std::chrono::duration<double>(gap));
      }
    }
    for (auto& f : futures) f.wait();
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    router.shutdown();
  });

  comm::World world(router.total_ranks());
  std::atomic<bool> released{false};
  world.run([&](comm::Comm& comm) {
    // Release the clients once every rank reached the fleet entry; the
    // per-group barrier inside serve() orders model build before traffic.
    if (!released.exchange(true)) fleet_up.set_value();
    router.serve(comm);
  });
  client.join();

  // Bitwise oracle comparison + client-side latency percentiles.
  std::vector<double> lats;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::InferenceResult res;
    try {
      res = futures[i].get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet request %zu failed: %s\n", i, e.what());
      result.oracle_match = false;
      ++result.mismatches;
      continue;
    }
    ++result.served;
    lats.push_back(res.latency_seconds);
    bool ok = res.topk.size() == oracle[i].size();
    for (std::size_t k = 0; ok && k < res.topk.size(); ++k) {
      ok = res.topk[k].cls == oracle[i][k].cls &&
           res.topk[k].prob == oracle[i][k].prob;  // bitwise
    }
    if (!ok) {
      result.oracle_match = false;
      ++result.mismatches;
    }
  }
  if (!lats.empty()) {
    std::sort(lats.begin(), lats.end());
    result.p50_seconds = lats[lats.size() / 2];
    result.p99_seconds = lats[std::min(lats.size() - 1,
                                       lats.size() * 99 / 100)];
  }
  const serve::RouterStats rs = router.stats();
  for (const auto& ms : rs.models) {
    for (const auto& rep : ms.replicas) {
      result.shed += rep.shed;
      result.expired += rep.expired;
    }
  }
  return result;
}

struct PolicyRow {
  std::string name;
  PolicyResult res;
  double throughput = 0;
};

void write_json(const char* path, const Config& cfg, bool smoke,
                const core::Strategy& strategy,
                const perf::ServingEstimate& model_est,
                const std::vector<PolicyRow>& rows, const FleetResult& fleet) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"distconv-bench-serve-v1\",\n");
  std::fprintf(f, "  \"provenance\": {\n");
  std::fprintf(f, "    \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "    \"ranks\": %d,\n", cfg.ranks);
  std::fprintf(f, "    \"requests\": %d,\n", cfg.requests);
  std::fprintf(f, "    \"arrival_rate_rps\": %.1f,\n", cfg.arrival_rate);
  std::fprintf(f, "    \"calibration\": \"lassen-builtin\",\n");
  std::fprintf(f, "    \"strategy\": \"%s\"\n", strategy.str().c_str());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"model_estimate\": {\n");
  std::fprintf(f, "    \"batch_latency_ms\": %.6f,\n",
               model_est.batch_latency * 1e3);
  std::fprintf(f, "    \"throughput_rps\": %.3f\n", model_est.throughput);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"policies\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"requests\": %llu,\n",
                 static_cast<unsigned long long>(r.res.stats.requests));
    std::fprintf(f, "      \"throughput_rps\": %.3f,\n", r.throughput);
    std::fprintf(f, "      \"p50_ms\": %.6f,\n",
                 r.res.stats.p50_latency_seconds * 1e3);
    std::fprintf(f, "      \"p99_ms\": %.6f,\n",
                 r.res.stats.p99_latency_seconds * 1e3);
    std::fprintf(f, "      \"mean_fill\": %.4f,\n", r.res.stats.mean_batch_fill);
    std::fprintf(f, "      \"shed\": %llu,\n",
                 static_cast<unsigned long long>(r.res.stats.shed));
    std::fprintf(f, "      \"expired\": %llu\n",
                 static_cast<unsigned long long>(r.res.stats.expired));
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const double fleet_thru =
      fleet.seconds > 0 ? double(fleet.served) / fleet.seconds : 0.0;
  std::fprintf(f, "  \"fleet\": {\n");
  std::fprintf(f, "    \"replicas\": %d,\n", fleet.slo.replicas);
  std::fprintf(f, "    \"group_ranks\": %d,\n",
               cfg.ranks / cfg.fleet_replicas);
  std::fprintf(f, "    \"slo\": {\n");
  std::fprintf(f, "      \"attainable\": %s,\n",
               fleet.slo.attainable ? "true" : "false");
  std::fprintf(f, "      \"max_batch\": %d,\n", fleet.slo.batcher.max_batch);
  std::fprintf(f, "      \"max_delay_us\": %lld,\n",
               static_cast<long long>(fleet.slo.batcher.max_delay_us));
  std::fprintf(f, "      \"deadline_us\": %lld,\n",
               static_cast<long long>(fleet.slo.batcher.deadline_us));
  std::fprintf(f, "      \"max_queue\": %lld,\n",
               static_cast<long long>(fleet.slo.batcher.max_queue));
  std::fprintf(f, "      \"predicted_batch_latency_ms\": %.6f,\n",
               fleet.slo.predicted_batch_latency * 1e3);
  std::fprintf(f, "      \"predicted_p99_ms\": %.6f,\n",
               fleet.slo.predicted_p99 * 1e3);
  std::fprintf(f, "      \"predicted_fleet_throughput_rps\": %.3f\n",
               fleet.slo.predicted_throughput);
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"requests\": %llu,\n",
               static_cast<unsigned long long>(fleet.served));
  std::fprintf(f, "    \"throughput_rps\": %.3f,\n", fleet_thru);
  std::fprintf(f, "    \"p50_ms\": %.6f,\n", fleet.p50_seconds * 1e3);
  std::fprintf(f, "    \"p99_ms\": %.6f,\n", fleet.p99_seconds * 1e3);
  std::fprintf(f, "    \"shed\": %llu,\n",
               static_cast<unsigned long long>(fleet.shed));
  std::fprintf(f, "    \"expired\": %llu,\n",
               static_cast<unsigned long long>(fleet.expired));
  std::fprintf(f, "    \"oracle_match\": %s\n",
               fleet.oracle_match ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = distconv::bench::parse_harness_args(argc, argv);
  Config cfg;
  if (args.smoke) {
    cfg.requests = 24;
    cfg.image = 16;
    cfg.batch = 4;
    cfg.arrival_rate = 4000.0;
    cfg.smoke = true;
  }

  // Train briefly so batchnorm has running statistics (otherwise serving
  // falls back to batch statistics and the zero-padded slots stop being
  // inert); checkpoint and serve from the restored weights, as production
  // would.
  std::string blob;
  {
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      const core::NetworkSpec spec = classifier(cfg);
      core::Model model(
          spec, comm, core::Strategy::sample_parallel(spec.size(), 1), 7);
      Rng rng(99);
      const Shape4 in_shape = model.rt(0).out_shape;
      for (int step = 0; step < 2; ++step) {
        Tensor<float> x(in_shape);
        x.fill_uniform(rng, -1.0f, 1.0f);
        std::vector<int> labels;
        for (std::int64_t n = 0; n < in_shape.n; ++n) {
          labels.push_back(static_cast<int>(rng.uniform() * cfg.classes) %
                           cfg.classes);
        }
        model.set_input(0, x);
        model.forward();
        model.loss_softmax(labels);
        model.backward();
        model.sgd_step(distconv::kernels::SgdConfig{0.05f, 0.9f, 0.0f});
      }
      std::ostringstream out;
      core::save_checkpoint(model, out);
      blob = out.str();
    });
  }

  // Serving strategy from the forward-only objective (FC head layers are
  // pinned sample-parallel by the optimizer).
  const core::NetworkSpec spec = classifier(cfg);
  const perf::MachineModel machine = perf::MachineModel::lassen();
  perf::OptimizerOptions opt;
  opt.objective = perf::Objective::kInference;
  const core::Strategy strategy =
      perf::optimize_strategy(spec, cfg.ranks, machine, opt);
  std::printf("serving strategy (forward-only objective, %d ranks): %s\n",
              cfg.ranks, strategy.str().c_str());

  const std::vector<Policy> policies = {
      {"no-batching", 1, 0},
      {"greedy", static_cast<int>(cfg.batch), 0},
      {"max-delay", static_cast<int>(cfg.batch), args.smoke ? 500 : 2000},
  };

  const perf::ServingEstimate model_est = perf::estimate_serving(
      spec, strategy, machine, /*max_delay_seconds=*/2e-3);
  std::printf("model: batch latency %.3f ms, throughput %.0f samples/s "
              "(at dispatch batch %lld)\n\n",
              model_est.batch_latency * 1e3, model_est.throughput,
              static_cast<long long>(cfg.batch));

  std::vector<PolicyRow> rows;
  std::printf("%-12s %9s %11s %11s %11s %10s\n", "policy", "reqs",
              "thru(r/s)", "p50(ms)", "p99(ms)", "avg fill");
  for (const auto& policy : policies) {
    PolicyRow row;
    row.name = policy.name;
    row.res = run_policy(cfg, policy, strategy, blob);
    row.throughput = row.res.seconds > 0
                         ? double(row.res.stats.requests) / row.res.seconds
                         : 0.0;
    std::printf("%-12s %9llu %11.1f %11.3f %11.3f %10.2f\n", policy.name,
                static_cast<unsigned long long>(row.res.stats.requests),
                row.throughput, row.res.stats.p50_latency_seconds * 1e3,
                row.res.stats.p99_latency_seconds * 1e3,
                row.res.stats.mean_batch_fill);
    if (row.res.stats.requests != static_cast<std::uint64_t>(cfg.requests)) {
      std::fprintf(stderr, "FAIL: %s served %llu of %d requests\n",
                   policy.name,
                   static_cast<unsigned long long>(row.res.stats.requests),
                   cfg.requests);
      return 1;
    }
    rows.push_back(std::move(row));
  }

  // Fleet: two replica groups behind the router, policy chosen by the SLO
  // chooser, every response checked bitwise against the single-rank oracle.
  const FleetResult fleet = run_fleet(cfg, machine, blob);
  const double fleet_thru =
      fleet.seconds > 0 ? double(fleet.served) / fleet.seconds : 0.0;
  std::printf("\nfleet: %d replicas × %d ranks, SLO policy max_batch=%d "
              "max_delay=%lldus deadline=%lldus (attainable=%s)\n",
              fleet.slo.replicas, cfg.ranks / cfg.fleet_replicas,
              fleet.slo.batcher.max_batch,
              static_cast<long long>(fleet.slo.batcher.max_delay_us),
              static_cast<long long>(fleet.slo.batcher.deadline_us),
              fleet.slo.attainable ? "yes" : "no");
  std::printf("fleet: served %llu/%d, thru %.1f r/s, p50 %.3f ms, "
              "p99 %.3f ms, shed %llu, expired %llu, oracle %s\n",
              static_cast<unsigned long long>(fleet.served), fleet.requests,
              fleet_thru, fleet.p50_seconds * 1e3, fleet.p99_seconds * 1e3,
              static_cast<unsigned long long>(fleet.shed),
              static_cast<unsigned long long>(fleet.expired),
              fleet.oracle_match ? "MATCH (bitwise)" : "MISMATCH");

  if (args.json != nullptr) {
    write_json(args.json, cfg, args.smoke, strategy, model_est, rows, fleet);
  }

  if (!fleet.oracle_match ||
      fleet.served != static_cast<std::uint64_t>(fleet.requests)) {
    std::fprintf(stderr,
                 "FAIL: fleet served %llu of %d with %d oracle mismatches\n",
                 static_cast<unsigned long long>(fleet.served),
                 fleet.requests, fleet.mismatches);
    return 1;
  }

  std::printf("\nknobs: DC_SERVE_MAX_BATCH / DC_SERVE_MAX_DELAY_US / "
              "DC_SERVE_REPLICAS / DC_SERVE_SLO_P99_US "
              "(see README \"Fleet-scale serving\")\n");
  return 0;
}
