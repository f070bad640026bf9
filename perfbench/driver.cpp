// End-to-end benchmark driver: runs one pinned workload against the
// library's public API, checks its outputs against a single-rank oracle and
// prints one JSON result line (the last line of stdout).
//
//   perfbench_driver --workload <mesh_hybrid|resnet_sample|serve_resnet>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//
// --trace 0 reports the end-to-end metrics of one untraced measured window.
// --trace 1 runs an untraced window and then a traced one of half the
// length each, and reports the per-layer metrics: self times of the spans
// this file records around its calls into the library, plus the counters
// the library publishes through obs::metrics::snapshot(). The spans and the
// registry snapshot are written to --trace-out.
//
// Every workload fixes its model, process grids and serving policy here and
// derives nothing from the strategy optimizer or the SLO chooser, so a change
// to the cost model cannot silently change what is measured. Inputs (data,
// labels, initial checkpoint, arrival schedule) are generated from --seed
// before any timing starts.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "models/models.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "perf/conv_planner.hpp"
#include "serve/router.hpp"
#include "support/parallel.hpp"

namespace {

using namespace distconv;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Pinned workload constants.
// ---------------------------------------------------------------------------

constexpr int kRanks = 4;
/// Setups per run; setup_s is their median. Each rep builds a fresh world
/// and model and clears the conv-plan cache, so every rep pays what a new
/// process would.
constexpr int kSetupReps = 9;
/// Training steps inside each setup rep (plan resolution, lazy pool start).
constexpr int kWarmupSteps = 2;
/// Measured steps whose losses are checked bitwise (after the warm-up
/// steps, which are always checked).
constexpr int kCheckedSteps = 4;
/// Relative loss tolerance against the single-rank oracle on the warm-up
/// steps, as in the library's exactness tests. Training amplifies rounding
/// differences, so later steps are not compared with the oracle.
constexpr double kOracleRelTol = 1e-5;
/// Ranks agree every this many steps whether the window goes on.
constexpr int kStepsPerVote = 4;
/// Distinct pregenerated batches the loader cycles through.
constexpr int kDistinctBatches = 2;
const kernels::SgdConfig kSgd{0.01f, 0.9f, 0.0f};

// mesh_hybrid: the paper's case of fewer samples than ranks. Blocks 1-3
// (high resolution) run spatially on 2x2, blocks 4-6 on sample x channel.
constexpr std::int64_t kMeshBatch = 2;
constexpr std::int64_t kMeshSize = 384;
constexpr int kMeshConvsPerBlock = 1;
constexpr double kMeshWidthScale = 1.0 / 8.0;
const ProcessGrid kMeshEarlyGrid{1, 1, 2, 2};
const ProcessGrid kMeshDeepGrid{2, 2, 1, 1};
const char* const kMeshFirstDeepLayer = "conv4_1";

// resnet_sample: narrow ResNet, pure sample parallelism, 8 samples per rank.
constexpr std::int64_t kResnetBatch = 32;
constexpr std::int64_t kResnetImage = 64;
constexpr int kResnetWidth = 8;
constexpr int kClasses = 10;

// serve_resnet: the same narrow ResNet served by 2 replica groups x 2 ranks
// (sample-parallel inside each group) under the batcher policy below, which
// spells out the ServeOptions defaults so a change of default does not
// change the workload. Open-loop Poisson arrivals at a fixed rate that
// keeps the replicas busy about a third of the time (see README.md).
constexpr int kServeReplicas = 2;
constexpr int kServeGroupRanks = 2;
constexpr double kServeRate = 100.0;  ///< requests per second
constexpr int kServeTrainSteps = 3;   ///< steps that produce the checkpoint
constexpr int kServePool = 64;        ///< distinct request samples
constexpr int kServeWarmup = 16;      ///< requests inside each setup rep
const char* const kServeTag = "resnet";

serve::ServeOptions serve_policy() {
  serve::ServeOptions o;
  o.batcher.max_batch = 8;
  o.batcher.max_delay_us = 1000;
  o.batcher.max_queue = 1024;
  o.batcher.deadline_us = 0;
  o.top_k = 5;
  o.continuous = false;
  o.double_buffer = true;
  return o;
}

core::NetworkSpec mesh_spec() {
  models::MeshModelConfig c;
  c.batch = kMeshBatch;
  c.size = kMeshSize;
  c.in_channels = 18;
  c.convs_per_block = kMeshConvsPerBlock;
  c.width_scale = kMeshWidthScale;
  return models::make_mesh_model(c);
}

core::Strategy mesh_strategy(const core::NetworkSpec& spec) {
  core::Strategy s = core::Strategy::uniform(spec.size(), kMeshEarlyGrid);
  for (int i = models::layer_index(spec, kMeshFirstDeepLayer); i < spec.size();
       ++i) {
    s.grids[i] = kMeshDeepGrid;
  }
  return s;
}

core::NetworkSpec resnet_spec(std::int64_t batch) {
  models::ResNetConfig c;
  c.batch = batch;
  c.classes = kClasses;
  c.image = kResnetImage;
  c.stages = {1, 1, 1, 1};
  c.base_width = kResnetWidth;
  return models::make_resnet(c);
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Tail of a series: a fixed percentile of the whole series, so that the
/// percentile reported does not depend on how many samples a run completes.
/// At the default run length it leaves well over ten samples beyond it; the
/// driver prints the count.
constexpr double kTailPercentile = 90;

struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples above the reported one
};

Tail tail_of(std::vector<double> v, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(percentile / 100 * v.size()));
  t.value = v[k];
  t.beyond = v.size() - 1 - k;
  return t;
}

/// Peak resident set size of this process so far (Linux reports KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

/// In-memory spans: name, start, end, parent and the step or request id.
/// Written by one thread (rank 0's, or the serve generator's).
struct Span {
  const char* name;
  std::int64_t id;
  int parent;
  std::int64_t t0, t1;
};

class SpanLog {
 public:
  void set_enabled(bool on) { on_ = on; }
  int add(const char* name, std::int64_t id, int parent, std::int64_t t0,
          std::int64_t t1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, id, parent, t0, t1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_end(int idx, std::int64_t t1) {
    if (idx >= 0) spans_[idx].t1 = t1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time (duration minus what child spans cover) and span count
  /// per name.
  std::map<std::string, std::pair<double, int>> self_ns() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += double(s.t1 - s.t0);
    }
    std::map<std::string, std::pair<double, int>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& e = out[spans_[i].name];
      e.first += double(spans_[i].t1 - spans_[i].t0) - child[i];
      e.second += 1;
    }
    return out;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// Rank 0 decides at each vote whether the measured window goes on; the
/// other rank threads wait for the decision, so every rank runs the same
/// number of collective steps. abort() releases waiters when rank 0 fails.
class StopVote {
 public:
  bool next(int rank, std::size_t round, bool more) {
    std::unique_lock<std::mutex> lock(mu_);
    if (rank == 0) {
      decisions_.push_back(more);
      cv_.notify_all();
      return more;
    }
    cv_.wait(lock, [&] { return aborted_ || decisions_.size() > round; });
    return !aborted_ && decisions_[round];
  }
  void abort() {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<bool> decisions_;
  bool aborted_ = false;
};

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const char* unit) {
    for (auto& it : items) {
      if (it.first == name) {
        it.second = {value, unit};
        return;
      }
    }
    items.push_back({name, {value, unit}});
  }
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
  std::string trace_json;  ///< spans + registry snapshot (traced runs)
};

std::vector<int> conv_layers(const core::NetworkSpec& spec) {
  std::vector<int> out;
  for (int i = 0; i < spec.size(); ++i) {
    if (dynamic_cast<const core::Conv2dLayer*>(&spec.layer(i)) != nullptr) {
      out.push_back(i);
    }
  }
  return out;
}

/// Per-layer metric names are the same for every workload: each workload
/// reports its own conv layers and zero for the other model's.
void zero_layer_metrics(Metrics& m) {
  for (const core::NetworkSpec& spec : {mesh_spec(), resnet_spec(1)}) {
    for (int i : conv_layers(spec)) {
      const std::string base = "layer." + spec.layer(i).name();
      m.set(base + ".fwd_ms", 0, "ms");
      m.set(base + ".bwd_ms", 0, "ms");
    }
  }
}

/// max over ranks of (sum of the named counters on that rank) / steps[rank].
double max_rank_ms(const obs::metrics::Snapshot& snap,
                   const std::vector<std::string>& add,
                   const std::vector<std::string>& sub,
                   const std::vector<double>& steps) {
  double best = 0;
  for (int r = 0; r < static_cast<int>(steps.size()); ++r) {
    if (steps[r] <= 0) continue;
    double ns = 0;
    for (const auto& n : add) ns += double(snap.counter_for(r, n));
    for (const auto& n : sub) ns -= double(snap.counter_for(r, n));
    best = std::max(best, ns / steps[r] * 1e-6);
  }
  return best;
}

/// Counter total (every rank plus background threads) per rank-step.
double mean_rank_ms(const obs::metrics::Snapshot& snap,
                    const std::vector<std::string>& names, double rank_steps) {
  double ns = 0;
  for (const auto& n : names) ns += double(snap.counter_total(n));
  return rank_steps > 0 ? ns / rank_steps * 1e-6 : 0.0;
}

void registry_metrics(const obs::metrics::Snapshot& snap,
                      const core::NetworkSpec& spec,
                      const std::vector<double>& rank_steps, bool training,
                      Metrics& m) {
  double total_steps = 0;
  for (double s : rank_steps) total_steps += s;
  std::vector<std::string> fwd_add, fwd_sub, bwd_add, bwd_sub;
  for (int i : conv_layers(spec)) {
    const std::string c = "layer." + std::to_string(i);
    const std::string base = "layer." + spec.layer(i).name();
    m.set(base + ".fwd_ms",
          max_rank_ms(snap, {c + ".fwd.ns"}, {c + ".fwd.blocked.ns"},
                      rank_steps),
          "ms");
    m.set(base + ".bwd_ms",
          training ? max_rank_ms(snap, {c + ".bwd.ns"}, {c + ".bwd.blocked.ns"},
                                 rank_steps)
                   : 0.0,
          "ms");
    fwd_add.push_back(c + ".fwd.ns");
    fwd_sub.push_back(c + ".fwd.blocked.ns");
    bwd_add.push_back(c + ".bwd.ns");
    bwd_sub.push_back(c + ".bwd.blocked.ns");
  }
  m.set("kernels.conv_fwd_ms", max_rank_ms(snap, fwd_add, fwd_sub, rank_steps),
        "ms");
  m.set("kernels.conv_bwd_ms",
        training ? max_rank_ms(snap, bwd_add, bwd_sub, rank_steps) : 0.0, "ms");
  m.set("tensor.halo_ms",
        mean_rank_ms(snap, {"comm.halo.ns", "comm.op.halo-refresh.ns"},
                     total_steps),
        "ms");
  m.set("tensor.shuffle_ms",
        mean_rank_ms(snap, {"comm.shuffle.ns", "comm.op.shuffle.ns"},
                     total_steps),
        "ms");
  const double bg = double(snap.counter_total("comm.ops.background"));
  const double owner = double(snap.counter_total("comm.ops.owner"));
  m.set("comm.bg_retire_frac", bg + owner > 0 ? bg / (bg + owner) : 0.0,
        "frac");
}

std::string trace_json(const std::string& workload, std::uint64_t seed,
                       const SpanLog& spans,
                       const obs::metrics::Snapshot& snap) {
  std::ostringstream o;
  o << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
    << ", \"spans\": [";
  const auto& ss = spans.spans();
  for (std::size_t i = 0; i < ss.size(); ++i) {
    o << (i ? ",\n" : "\n") << "{\"name\": \"" << ss[i].name
      << "\", \"id\": " << ss[i].id << ", \"parent\": " << ss[i].parent
      << ", \"start_ns\": " << ss[i].t0 << ", \"end_ns\": " << ss[i].t1 << "}";
  }
  o << "],\n\"registry\": " << obs::metrics::to_json(snap) << "}\n";
  return o.str();
}

void print_config(const char* workload, const char* grids,
                  const serve::ServeOptions* policy) {
  int threads = 0;
  comm::World probe(kRanks);
  probe.run([&](comm::Comm& comm) {
    if (comm.rank() == 0) threads = parallel::num_threads();
  });
  const char* planner = "model";
  switch (perf::conv_plan_mode()) {
    case perf::ConvPlanMode::kModel: planner = "model"; break;
    case perf::ConvPlanMode::kMeasure: planner = "measure"; break;
    case perf::ConvPlanMode::kOff: planner = "off"; break;
  }
  std::printf("config: workload=%s nproc=%u ranks=%d threads_per_rank=%d "
              "progress=%s planner=%s build=%s\n",
              workload, std::thread::hardware_concurrency(), kRanks, threads,
              comm::to_string(comm::progress_mode_from_env()), planner,
              PERFBENCH_BUILD_TYPE);
  std::printf("config: grids %s\n", grids);
  if (policy != nullptr) {
    std::printf("config: serve max_batch=%d max_delay_us=%lld max_queue=%lld "
                "deadline_us=%lld top_k=%d continuous=%d double_buffer=%d "
                "rate=%.0f/s\n",
                policy->batcher.max_batch,
                static_cast<long long>(policy->batcher.max_delay_us),
                static_cast<long long>(policy->batcher.max_queue),
                static_cast<long long>(policy->batcher.deadline_us),
                policy->top_k, int(policy->continuous),
                int(policy->double_buffer), kServeRate);
  }
}

// ---------------------------------------------------------------------------
// Training workloads (mesh_hybrid, resnet_sample).
// ---------------------------------------------------------------------------

struct TrainData {
  std::vector<Tensor<float>> inputs;     ///< global batches
  std::vector<Tensor<float>> targets;    ///< per-pixel BCE targets (mesh)
  std::vector<std::vector<int>> labels;  ///< class labels (resnet)
};

struct TrainWorkload {
  core::NetworkSpec spec;
  core::Strategy strategy;
  bool softmax = false;
  TrainData data;
};

TrainWorkload make_train_workload(const std::string& name, std::uint64_t seed) {
  TrainWorkload w;
  if (name == "mesh_hybrid") {
    w.spec = mesh_spec();
    w.strategy = mesh_strategy(w.spec);
    data::MeshTanglingConfig dc;
    dc.size = kMeshSize;
    dc.channels = 18;
    dc.seed = seed;
    const data::MeshTanglingDataset ds(dc);
    const Shape4 in = w.spec.infer_shapes().front();
    const Shape4 out = w.spec.infer_shapes().back();
    for (int b = 0; b < kDistinctBatches; ++b) {
      Tensor<float> x(in), y(out);
      ds.batch(b * in.n, x, y);
      w.data.inputs.push_back(std::move(x));
      w.data.targets.push_back(std::move(y));
    }
  } else {
    w.spec = resnet_spec(kResnetBatch);
    w.strategy = core::Strategy::sample_parallel(w.spec.size(), kRanks);
    w.softmax = true;
    data::ClassificationConfig dc;
    dc.size = kResnetImage;
    dc.classes = kClasses;
    dc.seed = seed;
    const data::ClassificationDataset ds(dc);
    const Shape4 in = w.spec.infer_shapes().front();
    for (int b = 0; b < kDistinctBatches; ++b) {
      Tensor<float> x(in);
      std::vector<int> labels;
      ds.batch(b * in.n, x, labels);
      w.data.inputs.push_back(std::move(x));
      w.data.labels.push_back(std::move(labels));
    }
  }
  return w;
}

/// The loader's batch source: copies the pregenerated batch, so the program
/// only ever sees generated inputs.
data::BatchFn batch_fn(const TrainData& data, std::int64_t batch) {
  return [&data, batch](std::int64_t first, Tensor<float>& global) {
    const Tensor<float>& src = data.inputs[(first / batch) % kDistinctBatches];
    std::copy(src.data(), src.data() + src.size(), global.data());
  };
}

/// One training step through the public API, each call timed as a span.
double train_step(core::Model& model, data::DistributedLoader& loader,
                  const TrainWorkload& w, std::int64_t step, SpanLog& spans,
                  int parent) {
  const std::size_t b = static_cast<std::size_t>(step % kDistinctBatches);
  std::int64_t t = now_ns();
  const auto mark = [&](const char* name) {
    const std::int64_t t1 = now_ns();
    spans.add(name, step, parent, t, t1);
    t = t1;
  };
  loader.load_step(step);
  mark("data.load");
  model.forward();
  mark("core.fwd");
  const double loss = w.softmax ? model.loss_softmax(w.data.labels[b])
                                : model.loss_bce(w.data.targets[b]);
  mark("core.loss");
  model.backward();
  mark("core.bwd");
  model.sgd_step(kSgd);
  mark("core.sgd");
  return loss;
}

/// The checkpoint every setup loads, built under the workload's own grids
/// so that building it needs no more memory than the measured model.
std::string initial_checkpoint(const TrainWorkload& w, std::uint64_t seed) {
  std::string blob;
  comm::World world(kRanks);
  world.run([&](comm::Comm& comm) {
    core::Model model(w.spec, comm, w.strategy, seed);
    if (comm.rank() == 0) blob = core::serialize_checkpoint(model);
  });
  return blob;
}

/// Losses of the same model, checkpoint, data and step sequence under
/// another strategy or options: the single-rank oracle, or the blocking
/// reference run.
std::vector<double> train_oracle(const TrainWorkload& w,
                                 const std::string& blob, std::uint64_t seed,
                                 int steps, const core::Strategy& strategy,
                                 const core::ModelOptions& opts) {
  std::vector<double> losses;
  comm::World world(strategy.num_ranks());
  world.run([&](comm::Comm& comm) {
    core::Model model(w.spec, comm, strategy, seed, opts);
    std::istringstream in(blob);
    core::load_checkpoint(model, in);
    const std::int64_t n = model.rt(0).out_shape.n;
    data::DistributedLoader loader(model, 0, batch_fn(w.data, n),
                                   n * kDistinctBatches);
    SpanLog off;
    for (int s = 0; s < steps; ++s) {
      const double loss = train_step(model, loader, w, s, off, -1);
      if (comm.rank() == 0) losses.push_back(loss);
    }
  });
  return losses;
}

/// One rank thread's traced-step attribution, the decomposition Trainer
/// publishes as step.*.ns: compute = wall - blocked, exposed = blocked -
/// tail. Blocked time also splits by wait category.
struct RankAcc {
  double compute_ns = 0, exposed_ns = 0, tail_ns = 0;
  double wait_ns[obs::kWaitCategories] = {0, 0, 0, 0};
  double steps = 0;
  double activation_bytes = 0;
};

/// comm.wait_* from per-rank blocked time: max over ranks, per step.
void wait_metrics(const std::vector<RankAcc>& acc, Metrics& m) {
  double total = 0, cat[obs::kWaitCategories] = {0, 0, 0, 0};
  for (const RankAcc& a : acc) {
    if (a.steps <= 0) continue;
    double sum = 0;
    for (int c = 0; c < obs::kWaitCategories; ++c) {
      cat[c] = std::max(cat[c], a.wait_ns[c] / a.steps * 1e-6);
      sum += a.wait_ns[c];
    }
    total = std::max(total, sum / a.steps * 1e-6);
  }
  m.set("comm.wait_ms", total, "ms");
  m.set("comm.wait_halo_ms", cat[int(obs::WaitCategory::kHalo)], "ms");
  m.set("comm.wait_shuffle_ms", cat[int(obs::WaitCategory::kShuffle)], "ms");
  m.set("comm.wait_gradreduce_ms", cat[int(obs::WaitCategory::kGradReduce)],
        "ms");
}

struct PhaseResult {
  std::int64_t steps = 0;
  double seconds = 0;
  std::vector<double> step_ms;  ///< rank 0 step wall times
  std::vector<double> losses;   ///< rank 0, in step order
  double grad_tail_ms = 0;      ///< rank 0 sum
  comm::CommStats stats;        ///< world traffic during the window
};

Outcome run_training(const std::string& name, std::uint64_t seed,
                     double seconds, bool trace) {
  const TrainWorkload w = make_train_workload(name, seed);
  const std::string blob = initial_checkpoint(w, seed);
  print_config(name.c_str(), w.strategy.str().c_str(), nullptr);

  Outcome out;
  std::vector<double> setup_s, build_s, ckpt_s, first_step_s;
  std::vector<std::vector<double>> warm_losses;
  std::vector<PhaseResult> phases;
  std::vector<RankAcc> acc(kRanks);
  SpanLog spans;
  obs::metrics::Snapshot snap;
  double plan_misses = 0;
  const std::int64_t batch = w.spec.infer_shapes().front().n;

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep == kSetupReps - 1;
    perf::clear_conv_plan_cache();
    if (trace && last) {
      obs::metrics::reset();
      obs::metrics::set_enabled(true);
    }
    StopVote votes[2];
    const std::int64_t t0 = now_ns();
    comm::World world(kRanks);
    world.run([&](comm::Comm& comm) {
      const int rank = comm.rank();
      core::Model model(w.spec, comm, w.strategy, seed);
      const std::int64_t t_built = now_ns();
      std::istringstream in(blob);
      core::load_checkpoint(model, in);
      const std::int64_t t_loaded = now_ns();
      data::DistributedLoader loader(model, 0, batch_fn(w.data, batch),
                                     batch * kDistinctBatches);
      SpanLog off;
      std::vector<double> losses;
      std::int64_t t_first = 0;
      for (int s = 0; s < kWarmupSteps; ++s) {
        losses.push_back(train_step(model, loader, w, s, off, -1));
        if (s == 0) t_first = now_ns();
      }
      comm::barrier(comm);
      if (rank == 0) {
        const std::int64_t t_ready = now_ns();
        setup_s.push_back(double(t_ready - t0) * 1e-9);
        build_s.push_back(double(t_built - t0) * 1e-9);
        ckpt_s.push_back(double(t_loaded - t_built) * 1e-9);
        first_step_s.push_back(double(t_first - t_loaded) * 1e-9);
        warm_losses.push_back(losses);
        if (trace && last) {
          plan_misses = double(
              obs::metrics::snapshot().counter_total("conv.plan.miss"));
          obs::metrics::set_enabled(false);
        }
      }
      if (!last) return;
      acc[rank].activation_bytes = double(model.activation_bytes());

      std::int64_t step = kWarmupSteps;
      const int n_phases = trace ? 2 : 1;
      const double phase_seconds = trace ? seconds / 2 : seconds;
      for (int p = 0; p < n_phases; ++p) {
        const bool traced = p == 1;
        StopVote& vote = votes[p];
        PhaseResult pr;
        comm::barrier(comm);
        if (rank == 0 && traced) {
          obs::metrics::reset();
          obs::metrics::set_enabled(true);
          spans.set_enabled(true);
        }
        comm::barrier(comm);
        const comm::CommStats s0 = world.stats();
        const std::int64_t start = now_ns();
        const std::int64_t deadline =
            start + static_cast<std::int64_t>(phase_seconds * 1e9);
        std::int64_t end = start;
        try {
          for (std::size_t round = 0;; ++round) {
            for (int k = 0; k < kStepsPerVote; ++k, ++step) {
              const obs::WaitTotals w0 = obs::thread_wait_totals();
              const std::int64_t ts = now_ns();
              const int parent =
                  rank == 0 ? spans.add("step", step, -1, ts, ts) : -1;
              const double loss =
                  train_step(model, loader, w, step,
                             rank == 0 ? spans : off, parent);
              const std::int64_t te = now_ns();
              if (traced) {
                const obs::WaitTotals& w1 = obs::thread_wait_totals();
                const double wall = double(te - ts);
                const double blocked = double(w1.total_ns() - w0.total_ns());
                const double tail = double(w1.tail_ns - w0.tail_ns);
                acc[rank].compute_ns += std::max(0.0, wall - blocked);
                acc[rank].exposed_ns += std::max(0.0, blocked - tail);
                acc[rank].tail_ns += tail;
                for (int c = 0; c < obs::kWaitCategories; ++c) {
                  acc[rank].wait_ns[c] += double(w1.ns[c] - w0.ns[c]);
                }
                acc[rank].steps += 1;
              }
              if (rank == 0) {
                spans.set_end(parent, te);
                pr.step_ms.push_back(double(te - ts) * 1e-6);
                pr.losses.push_back(loss);
                pr.grad_tail_ms += model.last_grad_completion_seconds() * 1e3;
              }
              end = te;
              ++pr.steps;
            }
            if (!vote.next(rank, round, now_ns() < deadline)) break;
          }
        } catch (...) {
          if (rank == 0) vote.abort();
          throw;
        }
        comm::barrier(comm);
        if (rank == 0) {
          pr.seconds = double(end - start) * 1e-9;
          const comm::CommStats s1 = world.stats();
          pr.stats.messages = s1.messages - s0.messages;
          pr.stats.bytes = s1.bytes - s0.bytes;
          if (traced) {
            snap = obs::metrics::snapshot();
            obs::metrics::set_enabled(false);
            spans.set_enabled(false);
          }
          phases.push_back(std::move(pr));
        }
        comm::barrier(comm);
      }
    });
  }
  const double rss_mb = peak_rss_mb();

  // Correctness, on every rep's warm-up steps and the first measured steps:
  //  * bitwise equal to a reference run of the same grids with every
  //    communication op on the blocking path (no overlap, no progress
  //    engine), which the library guarantees to give identical bits;
  //  * on the warm-up steps, within kOracleRelTol of the single-rank
  //    oracle. Cross-rank sums (the loss itself, gradient allreduce,
  //    batchnorm statistics) add in another order than one rank does, so
  //    the last bits differ from the first step on.
  // Every measured loss must be finite.
  const int checked = kWarmupSteps + kCheckedSteps;
  core::ModelOptions blocking;
  blocking.overlap_allreduce = false;
  blocking.comm_progress = comm::ProgressMode::kOff;
  const std::vector<double> reference =
      train_oracle(w, blob, seed, checked, w.strategy, blocking);
  const std::vector<double> oracle =
      train_oracle(w, blob, seed, kWarmupSteps,
                   core::Strategy::sample_parallel(w.spec.size(), 1), {});
  const PhaseResult& m = phases.front();
  std::vector<std::vector<double>> runs = warm_losses;
  runs.back().insert(runs.back().end(), m.losses.begin(),
                     m.losses.begin() + std::min<std::size_t>(
                                            m.losses.size(), kCheckedSteps));
  std::int64_t failed = 0;
  for (const auto& losses : runs) {
    for (std::size_t s = 0; s < losses.size(); ++s) {
      const bool near_oracle =
          s >= oracle.size() ||
          std::abs(losses[s] - oracle[s]) <=
              kOracleRelTol * std::max(1.0, std::abs(oracle[s]));
      if (losses[s] != reference[s] || !near_oracle) {
        ++failed;
        std::fprintf(stderr, "step %zu loss %.17g: reference %.17g\n", s,
                     losses[s], reference[s]);
      }
    }
  }
  for (double loss : m.losses) failed += std::isfinite(loss) ? 0 : 1;
  out.attempted = m.steps;
  out.failed = failed;

  const double sps = double(m.steps * batch) / m.seconds;
  const Tail tail = tail_of(m.step_ms, kTailPercentile);
  std::printf("%s: %lld steps in %.3f s; tail = p%.0f of %zu step times, "
              "%zu beyond it\n",
              name.c_str(), static_cast<long long>(m.steps), m.seconds,
              tail.percentile, tail.samples, tail.beyond);
  if (!trace) {
    out.metrics.set("samples_per_s", sps, "1/s");
    out.metrics.set("latency_p50_ms", median(m.step_ms), "ms");
    out.metrics.set("latency_tail_ms", tail.value, "ms");
    out.metrics.set("setup_s", median(setup_s), "s");
    out.metrics.set("peak_rss_mb", rss_mb, "MB");
    out.metrics.set("success_frac",
                    double(out.attempted - failed) / double(out.attempted),
                    "frac");
    return out;
  }

  const PhaseResult& t = phases.back();
  const double steps = double(t.steps);
  const auto self = spans.self_ns();
  const auto self_ms = [&](const char* n) {
    const auto it = self.find(n);
    return it == self.end() ? 0.0 : it->second.first / steps * 1e-6;
  };
  // Rank 0's wall time per step over the whole traced window, votes
  // included, so it does not depend on the spans it is compared with.
  const double step_wall = t.seconds / steps * 1e3;
  const double blocking_path = self_ms("data.load") + self_ms("core.fwd") +
                               self_ms("core.loss") + self_ms("core.bwd") +
                               self_ms("core.sgd");
  Metrics& pm = out.metrics;
  pm.set("data.load_ms", self_ms("data.load"), "ms");
  pm.set("core.fwd_ms", self_ms("core.fwd"), "ms");
  pm.set("core.loss_ms", self_ms("core.loss"), "ms");
  pm.set("core.bwd_ms", self_ms("core.bwd"), "ms");
  pm.set("core.sgd_ms", self_ms("core.sgd"), "ms");
  pm.set("core.grad_tail_ms", t.grad_tail_ms / steps, "ms");
  double act = 0, comp = 0, expo = 0, tl = 0;
  std::vector<double> rank_steps;
  for (const RankAcc& a : acc) {
    act = std::max(act, a.activation_bytes);
    comp = std::max(comp, a.compute_ns / a.steps * 1e-6);
    expo = std::max(expo, a.exposed_ns / a.steps * 1e-6);
    tl = std::max(tl, a.tail_ns / a.steps * 1e-6);
    rank_steps.push_back(a.steps);
  }
  pm.set("core.activation_mb", act / (1024.0 * 1024.0), "MB");
  pm.set("step.compute_ms", comp, "ms");
  pm.set("step.exposed_ms", expo, "ms");
  pm.set("step.tail_ms", tl, "ms");
  zero_layer_metrics(pm);
  registry_metrics(snap, w.spec, rank_steps, /*training=*/true, pm);
  wait_metrics(acc, pm);
  pm.set("kernels.plan_misses", plan_misses, "count");
  pm.set("comm.bytes_per_step", double(t.stats.bytes) / steps, "B");
  pm.set("comm.msgs_per_step", double(t.stats.messages) / steps, "count");
  for (const char* n : {"serve.queue_ms", "serve.batch_wait_ms",
                        "serve.forward_ms", "serve.respond_ms",
                        "serve.submit_ms", "serve.gen_lag_ms"}) {
    pm.set(n, 0, "ms");
  }
  pm.set("serve.batch_fill", 0, "frac");
  pm.set("serve.shed", 0, "count");
  pm.set("serve.expired", 0, "count");
  pm.set("setup.build_s", median(build_s), "s");
  pm.set("setup.ckpt_load_s", median(ckpt_s), "s");
  pm.set("setup.first_step_s", median(first_step_s), "s");
  pm.set("trace.step_ms", step_wall, "ms");
  pm.set("trace.step_coverage", blocking_path / step_wall, "frac");
  const double traced_sps = double(t.steps * batch) / t.seconds;
  pm.set("trace.overhead_frac", 1.0 - traced_sps / sps, "frac");
  out.trace_json = trace_json(name, seed, spans, snap);
  return out;
}

// ---------------------------------------------------------------------------
// Serving workload (serve_resnet).
// ---------------------------------------------------------------------------

std::string trained_checkpoint(std::uint64_t seed) {
  std::string blob;
  data::ClassificationConfig dc;
  dc.size = kResnetImage;
  dc.classes = kClasses;
  dc.seed = seed;
  const data::ClassificationDataset ds(dc);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec spec =
        resnet_spec(serve_policy().batcher.max_batch);
    core::Model model(spec, comm,
                      core::Strategy::sample_parallel(spec.size(), 1), seed);
    const Shape4 in = model.rt(0).out_shape;
    for (int s = 0; s < kServeTrainSteps; ++s) {
      Tensor<float> x(in);
      std::vector<int> labels;
      ds.batch(s * in.n, x, labels);
      model.set_input(0, x);
      model.forward();
      model.loss_softmax(labels);
      model.backward();
      model.sgd_step(kSgd);
    }
    blob = core::serialize_checkpoint(model);
  });
  return blob;
}

/// Top-k of each pool sample from a single-rank model restored from the same
/// checkpoint. Eval-mode operators are per-sample, so batching the pool
/// eight at a time scores each sample exactly as the fleet does.
std::vector<std::vector<serve::Prediction>> serve_oracle(
    const std::string& blob, const std::vector<Tensor<float>>& pool,
    std::uint64_t seed) {
  std::vector<std::vector<serve::Prediction>> topk;
  const int top_k = serve_policy().top_k;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec spec =
        resnet_spec(serve_policy().batcher.max_batch);
    core::Model model(spec, comm,
                      core::Strategy::sample_parallel(spec.size(), 1), seed);
    std::istringstream in(blob);
    core::load_checkpoint(model, in);
    const Shape4 in_shape = model.rt(0).out_shape;
    const std::int64_t per = in_shape.c * in_shape.h * in_shape.w;
    for (std::size_t first = 0; first < pool.size();
         first += static_cast<std::size_t>(in_shape.n)) {
      Tensor<float> x(in_shape);
      for (std::int64_t k = 0; k < in_shape.n; ++k) {
        const Tensor<float>& s = pool[first + static_cast<std::size_t>(k)];
        std::copy(s.data(), s.data() + per, x.data() + k * per);
      }
      model.set_input(0, x);
      model.forward(core::Mode::kInference);
      const Tensor<float> logits = model.gather_output(model.output_layer());
      for (std::int64_t k = 0; k < in_shape.n; ++k) {
        topk.push_back(serve::topk_softmax(logits.data() + k * kClasses,
                                           kClasses, top_k));
      }
    }
  });
  return topk;
}

struct Request {
  double due = 0;  ///< seconds after the window starts
  int sample = 0;  ///< index into the pool
};

struct ServePhase {
  std::int64_t sent = 0, completed = 0, shed = 0, expired = 0, errors = 0;
  std::int64_t mismatches = 0;
  double seconds = 0;
  std::vector<double> latency_ms;  ///< completion - due time
  std::vector<double> lag_ms;      ///< send time - due time
  std::vector<double> return_ms;   ///< Router::submit's return - due time
  std::uint64_t batches = 0, requests = 0;
  std::vector<double> group_batches;  ///< forward batches per replica group
  comm::CommStats stats;
};

std::uint64_t sum_replicas(const serve::RouterStats& s,
                           std::uint64_t serve::ReplicaStats::*field) {
  std::uint64_t v = 0;
  for (const auto& m : s.models) {
    for (const auto& r : m.replicas) v += r.*field;
  }
  return v;
}

Outcome run_serving(std::uint64_t seed, double seconds, bool trace) {
  const serve::ServeOptions policy = serve_policy();
  const core::NetworkSpec spec = resnet_spec(policy.batcher.max_batch);
  const core::Strategy strategy =
      core::Strategy::sample_parallel(spec.size(), kServeGroupRanks);
  const std::string blob = trained_checkpoint(seed);
  print_config("serve_resnet",
               (std::to_string(kServeReplicas) + " replicas of " +
                strategy.str())
                   .c_str(),
               &policy);

  // Request pool and open-loop Poisson schedule, all from the seed.
  data::ClassificationConfig dc;
  dc.size = kResnetImage;
  dc.classes = kClasses;
  dc.seed = seed;
  const data::ClassificationDataset ds(dc);
  std::vector<Tensor<float>> pool;
  for (int i = 0; i < kServePool; ++i) {
    Tensor<float> x(ds.sample_shape());
    ds.sample(1000000 + i, x);
    pool.push_back(std::move(x));
  }
  const int n_phases = trace ? 2 : 1;
  const double phase_seconds = trace ? seconds / 2 : seconds;
  std::vector<std::vector<Request>> schedule(n_phases);
  Rng rng(seed, /*stream=*/7);
  for (auto& phase : schedule) {
    for (double t = 0;;) {
      t += -std::log(std::max(1e-12, 1.0 - rng.uniform())) / kServeRate;
      if (t >= phase_seconds) break;
      phase.push_back(Request{t, static_cast<int>(rng.next_below(kServePool))});
    }
  }

  Outcome out;
  std::vector<double> setup_s, build_s, first_step_s;
  std::vector<ServePhase> phases;
  std::vector<std::vector<serve::InferenceResult>> results(n_phases);
  std::vector<std::vector<int>> result_ok(n_phases);
  SpanLog spans;
  obs::metrics::Snapshot snap;
  double plan_misses = 0;

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep == kSetupReps - 1;
    perf::clear_conv_plan_cache();
    if (trace && last) {
      obs::metrics::reset();
      obs::metrics::set_enabled(true);
    }
    const std::int64_t t0 = now_ns();
    comm::World world(kServeReplicas * kServeGroupRanks);
    serve::Router router;
    serve::FleetModel fm;
    fm.tag = kServeTag;
    fm.spec = resnet_spec(policy.batcher.max_batch);
    fm.strategy = strategy;
    fm.checkpoint = blob;
    fm.opts = policy;
    fm.seed = seed;
    fm.replicas = kServeReplicas;
    router.add_model(std::move(fm));
    const std::int64_t t_built = now_ns();

    const auto copy_of = [&](int i) {
      Tensor<float> x(pool[i].shape());
      std::copy(pool[i].data(), pool[i].data() + pool[i].size(), x.data());
      return x;
    };
    std::exception_ptr gen_error;
    std::thread generator([&] {
      try {
        std::vector<std::future<serve::InferenceResult>> warm;
        for (int i = 0; i < kServeWarmup; ++i) {
          warm.push_back(router.submit(kServeTag, copy_of(i % kServePool)));
        }
        double first = 0;
        for (auto& f : warm) {
          f.get();
          if (first == 0) first = double(now_ns() - t_built) * 1e-9;
        }
        setup_s.push_back(double(now_ns() - t0) * 1e-9);
        build_s.push_back(double(t_built - t0) * 1e-9);
        first_step_s.push_back(first);
        if (trace && last) {
          plan_misses = double(
              obs::metrics::snapshot().counter_total("conv.plan.miss"));
          obs::metrics::set_enabled(false);
        }
        for (int p = 0; last && p < n_phases; ++p) {
          const bool traced = p == 1;
          ServePhase ph;
          const serve::RouterStats r0 = router.stats();
          if (traced) {
            obs::metrics::reset();
            obs::metrics::set_enabled(true);
            spans.set_enabled(true);
          }
          const comm::CommStats s0 = world.stats();
          const auto& reqs = schedule[p];
          std::vector<std::future<serve::InferenceResult>> futures(reqs.size());
          std::vector<int> request_span(reqs.size(), -1);
          std::vector<char> accepted(reqs.size(), 0);
          const std::int64_t base_ns = now_ns() + 5000000;
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            const std::int64_t due_ns =
                base_ns + static_cast<std::int64_t>(reqs[i].due * 1e9);
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(due_ns)));
            const std::int64_t ts = now_ns();
            ph.lag_ms.push_back(double(ts - due_ns) * 1e-6);
            ++ph.sent;
            try {
              futures[i] = router.submit(kServeTag, copy_of(reqs[i].sample));
              accepted[i] = 1;
            } catch (const OverloadedError&) {
              ++ph.shed;
            }
            const std::int64_t te = now_ns();
            ph.return_ms.push_back(double(te - due_ns) * 1e-6);
            const int parent = spans.add("serve.request", std::int64_t(i), -1,
                                         due_ns, te);
            spans.add("serve.submit", std::int64_t(i), parent, ts, te);
            request_span[i] = parent;
          }
          double last_done_ms = 0;
          results[p].resize(reqs.size());
          result_ok[p].assign(reqs.size(), 0);
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (!accepted[i]) continue;
            try {
              results[p][i] = futures[i].get();
            } catch (const DeadlineExceededError&) {
              ++ph.expired;
              continue;
            } catch (const std::exception& e) {
              std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
              ++ph.errors;
              continue;
            }
            result_ok[p][i] = 1;
            ++ph.completed;
            // The library times a request from its enqueue inside
            // Router::submit to its completion. Adding that to submit's
            // return covers all of submit and overstates completion by the
            // few microseconds between the enqueue and the return.
            const double lat =
                ph.return_ms[i] + results[p][i].latency_seconds * 1e3;
            ph.latency_ms.push_back(lat);
            const double done = reqs[i].due * 1e3 + lat;
            last_done_ms = std::max(last_done_ms, done);
            spans.set_end(request_span[i],
                          base_ns + static_cast<std::int64_t>(done * 1e6));
          }
          ph.seconds = (last_done_ms - reqs.front().due * 1e3) * 1e-3;
          const serve::RouterStats r1 = router.stats();
          ph.batches = sum_replicas(r1, &serve::ReplicaStats::batches) -
                       sum_replicas(r0, &serve::ReplicaStats::batches);
          ph.requests = sum_replicas(r1, &serve::ReplicaStats::requests) -
                        sum_replicas(r0, &serve::ReplicaStats::requests);
          for (std::size_t g = 0; g < r1.models[0].replicas.size(); ++g) {
            ph.group_batches.push_back(
                double(r1.models[0].replicas[g].batches -
                       r0.models[0].replicas[g].batches));
          }
          const comm::CommStats s1 = world.stats();
          ph.stats.messages = s1.messages - s0.messages;
          ph.stats.bytes = s1.bytes - s0.bytes;
          if (traced) {
            snap = obs::metrics::snapshot();
            obs::metrics::set_enabled(false);
            spans.set_enabled(false);
          }
          phases.push_back(std::move(ph));
        }
      } catch (...) {
        gen_error = std::current_exception();
      }
      router.shutdown();
    });
    std::exception_ptr serve_error;
    try {
      world.run([&](comm::Comm& comm) { router.serve(comm); });
    } catch (...) {
      serve_error = std::current_exception();
      router.shutdown();
    }
    generator.join();
    if (serve_error) std::rethrow_exception(serve_error);
    if (gen_error) std::rethrow_exception(gen_error);
  }
  const double rss_mb = peak_rss_mb();

  // Correctness: every response's top-k equals the oracle's bitwise.
  const auto oracle = serve_oracle(blob, pool, seed);
  for (int p = 0; p < n_phases; ++p) {
    for (std::size_t i = 0; i < results[p].size(); ++i) {
      if (!result_ok[p][i]) continue;
      const auto& got = results[p][i].topk;
      const auto& want = oracle[schedule[p][i].sample];
      bool ok = got.size() == want.size();
      for (std::size_t k = 0; ok && k < got.size(); ++k) {
        ok = got[k].cls == want[k].cls && got[k].prob == want[k].prob;
      }
      if (!ok) ++phases[p].mismatches;
    }
  }
  const ServePhase& m = phases.front();
  out.attempted = m.sent;
  out.failed = m.shed + m.expired + m.errors + m.mismatches;
  if (trace) {
    const ServePhase& t = phases.back();
    out.attempted += t.sent;
    out.failed += t.shed + t.expired + t.errors + t.mismatches;
  }
  const double rps = double(m.completed) / m.seconds;
  const Tail tail = tail_of(m.latency_ms, kTailPercentile);
  std::printf("serve_resnet: %lld requests in %.3f s; tail = p%.0f of %zu "
              "latencies, %zu beyond it; failed %lld (shed %lld expired %lld "
              "errors %lld mismatches %lld)\n",
              static_cast<long long>(m.sent), m.seconds, tail.percentile,
              tail.samples, tail.beyond,
              static_cast<long long>(out.failed),
              static_cast<long long>(m.shed), static_cast<long long>(m.expired),
              static_cast<long long>(m.errors),
              static_cast<long long>(m.mismatches));
  if (!trace) {
    out.metrics.set("samples_per_s", rps, "1/s");
    out.metrics.set("latency_p50_ms", median(m.latency_ms), "ms");
    out.metrics.set("latency_tail_ms", tail.value, "ms");
    out.metrics.set("setup_s", median(setup_s), "s");
    out.metrics.set("peak_rss_mb", rss_mb, "MB");
    out.metrics.set("success_frac",
                    double(out.attempted - out.failed) / double(out.attempted),
                    "frac");
    return out;
  }

  const ServePhase& t = phases.back();
  Metrics& pm = out.metrics;
  for (const char* n : {"data.load_ms", "core.fwd_ms", "core.loss_ms",
                        "core.bwd_ms", "core.sgd_ms", "core.grad_tail_ms",
                        "step.compute_ms", "step.exposed_ms", "step.tail_ms"}) {
    pm.set(n, 0, "ms");
  }
  pm.set("core.activation_mb", 0, "MB");
  zero_layer_metrics(pm);
  // A serving "step" is one forward batch of a replica group.
  // Replica groups occupy contiguous world ranks in group order.
  std::vector<double> rank_steps;
  std::vector<RankAcc> acc(kServeReplicas * kServeGroupRanks);
  const char* const categories[obs::kWaitCategories] = {
      "comm.wait.halo.ns", "comm.wait.shuffle.ns", "comm.wait.gradreduce.ns",
      "comm.wait.other.ns"};
  for (int r = 0; r < kServeReplicas * kServeGroupRanks; ++r) {
    acc[r].steps = t.group_batches[r / kServeGroupRanks];
    for (int c = 0; c < obs::kWaitCategories; ++c) {
      acc[r].wait_ns[c] = double(snap.counter_for(r, categories[c]));
    }
    rank_steps.push_back(acc[r].steps);
  }
  registry_metrics(snap, spec, rank_steps, /*training=*/false, pm);
  wait_metrics(acc, pm);
  pm.set("kernels.plan_misses", plan_misses, "count");
  pm.set("comm.bytes_per_step", double(t.stats.bytes) / double(t.batches), "B");
  pm.set("comm.msgs_per_step", double(t.stats.messages) / double(t.batches),
         "count");
  // Mean per request of each replica's stage histogram, worst replica. The
  // registry's p50 has log2-bucket resolution, too coarse to show a change.
  const auto stage_ms = [&](const char* stage) {
    double best = 0;
    for (int g = 0; g < kServeReplicas; ++g) {
      const std::string name =
          "serve.replica." + std::to_string(g) + ".stage." + stage + "_us";
      for (const auto& rank : snap.histograms) {
        const auto it = rank.second.find(name);
        if (it != rank.second.end() && it->second.count > 0) {
          best = std::max(best, double(it->second.sum) /
                                    double(it->second.count) * 1e-3);
        }
      }
    }
    return best;
  };
  pm.set("serve.queue_ms", stage_ms("queue"), "ms");
  pm.set("serve.batch_wait_ms", stage_ms("batch_wait"), "ms");
  pm.set("serve.forward_ms", stage_ms("forward"), "ms");
  pm.set("serve.respond_ms", stage_ms("respond"), "ms");
  const auto self = spans.self_ns();
  const auto self_ms = [&](const char* n) {
    const auto it = self.find(n);
    return it == self.end() || it->second.second == 0
               ? 0.0
               : it->second.first / it->second.second * 1e-6;
  };
  pm.set("serve.submit_ms", self_ms("serve.submit"), "ms");
  pm.set("serve.gen_lag_ms", tail_of(t.lag_ms, kTailPercentile).value, "ms");
  pm.set("serve.batch_fill",
         double(t.requests) /
             (double(t.batches) * double(policy.batcher.max_batch)),
         "frac");
  pm.set("serve.shed", double(t.shed), "count");
  pm.set("serve.expired", double(t.expired), "count");
  pm.set("setup.build_s", median(build_s), "s");
  pm.set("setup.ckpt_load_s", 0, "s");
  pm.set("setup.first_step_s", median(first_step_s), "s");
  pm.set("trace.step_ms", median(t.latency_ms), "ms");
  pm.set("trace.step_coverage",
         self_ms("serve.submit") /
             (self_ms("serve.request") + self_ms("serve.submit")),
         "frac");
  const double traced_rps = double(t.completed) / t.seconds;
  pm.set("trace.overhead_frac", 1.0 - traced_rps / rps, "frac");
  out.trace_json = trace_json("serve_resnet", seed, spans, snap);
  return out;
}

// ---------------------------------------------------------------------------

void print_result(const Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              o.failed == 0 ? "true" : "false",
              static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.items.size(); ++i) {
    const auto& it = o.metrics.items[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", it.first.c_str(),
                it.second.first, it.second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<mesh_hybrid|resnet_sample|serve_resnet> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0') return usage();
    } else if (key == "--trace") {
      trace = std::strcmp(val, "1") == 0   ? 1
              : std::strcmp(val, "0") == 0 ? 0
                                           : -1;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || trace < 0 || !(seconds >= 1) ||
      (workload != "mesh_hybrid" && workload != "resnet_sample" &&
       workload != "serve_resnet")) {
    return usage();
  }

  Outcome o;
  try {
    o = workload == "serve_resnet"
            ? run_serving(seed, seconds, trace == 1)
            : run_training(workload, seed, seconds, trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (trace == 1 && !trace_out.empty()) {
    std::ofstream f(trace_out);
    f << o.trace_json;
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  print_result(o);
  return o.failed == 0 ? 0 : 1;
}
