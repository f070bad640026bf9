#include "obs/drift.hpp"

#include <cctype>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "support/env.hpp"
#include "support/logging.hpp"

namespace distconv::obs {

DriftOptions drift_options_from_env() {
  DriftOptions o;
  o.every = static_cast<int>(env_int("DC_OBS_DRIFT_EVERY", o.every,
                                     std::numeric_limits<int>::max()));
  o.warn_ratio = env_double("DC_OBS_DRIFT_TOL", o.warn_ratio, 1.0,
                            std::numeric_limits<double>::infinity());
  return o;
}

std::string drift_gauge_name(const std::string& term) {
  std::string name = "model.drift.";
  for (const char c : term) {
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return name;
}

DriftMonitor::DriftMonitor(const core::NetworkSpec& spec,
                           core::Strategy strategy,
                           perf::MachineModel machine, int ranks,
                           DriftOptions opts,
                           perf::NetworkCostOptions cost_options,
                           const perf::ComputeModel* compute)
    : spec_(spec),
      strategy_(std::move(strategy)),
      machine_(machine),
      ranks_(ranks),
      opts_(opts),
      cost_options_(cost_options),
      compute_(compute) {}

void DriftMonitor::on_step(std::int64_t step) {
  if (opts_.every <= 0 || !metrics::enabled()) return;
  if ((step + 1) % opts_.every != 0) return;
  // One comparison per cadence point, not one per rank: the snapshot merges
  // every rank's shards anyway, so rank 0 speaks for the grid.
  if (log::thread_rank() != 0) return;

  const ModelComparison cmp = compare_to_model(
      metrics::snapshot(), spec_, strategy_, machine_, ranks_, cost_options_,
      compute_);
  std::uint64_t warned = 0;
  for (const auto& term : cmp.terms) {
    metrics::gauge(drift_gauge_name(term.name))
        .set(static_cast<std::int64_t>(term.ratio * 1e6));
    if (term.modelled_seconds <= 0 || term.measured_seconds <= 0) continue;
    if (term.ratio > opts_.warn_ratio || term.ratio < 1.0 / opts_.warn_ratio) {
      ++warned;
      log::warn("model drift: '", term.name, "' measured ",
                term.measured_seconds * 1e3, " ms/step vs modelled ",
                term.modelled_seconds * 1e3, " ms/step (ratio ", term.ratio,
                ", tol ", opts_.warn_ratio, ") at step ", step);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  last_ = cmp;
  ++checks_;
  warnings_ += warned;
}

ModelComparison DriftMonitor::last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

std::uint64_t DriftMonitor::checks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_;
}

std::uint64_t DriftMonitor::warnings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warnings_;
}

}  // namespace distconv::obs
