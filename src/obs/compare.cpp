#include "obs/compare.hpp"

#include <cstdio>

namespace distconv::obs {
namespace {

double ns_counter(const metrics::Snapshot& snap, const std::string& name) {
  return static_cast<double>(snap.counter_total(name)) * 1e-9;
}

}  // namespace

std::string ModelComparison::str() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-22s %-14s %-14s %-8s\n", "term",
                "measured (ms)", "modelled (ms)", "ratio");
  out += buf;
  for (const Term& t : terms) {
    std::snprintf(buf, sizeof(buf), "%-22s %-14.4f %-14.4f %-8.2f\n",
                  t.name.c_str(), t.measured_seconds * 1e3,
                  t.modelled_seconds * 1e3, t.ratio);
    out += buf;
  }
  return out;
}

ModelComparison compare_to_model(const metrics::Snapshot& snap,
                                 const core::NetworkSpec& spec,
                                 const core::Strategy& strategy,
                                 const perf::MachineModel& machine, int ranks,
                                 const perf::NetworkCostOptions& options,
                                 const perf::ComputeModel* compute) {
  DC_REQUIRE(ranks >= 1, "compare_to_model needs the rank count, got ", ranks);
  ModelComparison cmp;
  const std::uint64_t step_events = snap.counter_total("step.count");
  // Forward-only collections (no Trainer) still normalize sensibly: treat
  // the data as one step per rank.
  const double steps =
      step_events > 0 ? static_cast<double>(step_events) / ranks : 1.0;
  cmp.steps = static_cast<int>(steps);
  const double norm = 1.0 / (static_cast<double>(ranks) * steps);

  const perf::NetworkCost cost =
      perf::network_cost(spec, strategy, machine, options, compute);

  // Per-layer sums over the conv layers the model prices.
  double meas_fwd = 0, meas_bwd = 0;
  double pred_fwd = 0, pred_bwd = 0, pred_halo = 0, pred_ar = 0;
  for (int i = 0; i < spec.size(); ++i) {
    const auto& lc = cost.layers[static_cast<std::size_t>(i)];
    if (!lc.has_value()) continue;
    const std::string base = "layer." + std::to_string(i) + ".";
    meas_fwd += ns_counter(snap, base + "fwd.ns") -
                ns_counter(snap, base + "fwd.blocked.ns");
    meas_bwd += ns_counter(snap, base + "bwd.ns") -
                ns_counter(snap, base + "bwd.blocked.ns");
    pred_fwd += lc->fp_compute;
    pred_bwd += lc->bpx_compute + lc->bpw_compute;
    pred_halo += lc->fp_halo + lc->bpx_halo;
    pred_ar += lc->allreduce;
  }

  // Every Model halo refresh, shuffle and gradient completion is an engine
  // op, timed start → retirement under comm.op.<label>.ns (the gradient
  // ops Model enqueues carry the "gradreduce" label).
  const double meas_halo = ns_counter(snap, "comm.op.halo-refresh.ns");
  const double meas_ar = ns_counter(snap, "comm.op.gradreduce.ns");
  const double meas_shuffle = ns_counter(snap, "comm.op.shuffle.ns");
  const double meas_step = ns_counter(snap, "step.wall.ns");

  auto add = [&](const std::string& name, double measured, double modelled) {
    ModelComparison::Term t;
    t.name = name;
    t.measured_seconds = measured;
    t.modelled_seconds = modelled;
    t.ratio = modelled > 0 ? measured / modelled : 0.0;
    cmp.terms.push_back(std::move(t));
  };

  add("conv fwd compute", meas_fwd * norm, pred_fwd);
  add("conv bwd compute", meas_bwd * norm, pred_bwd);
  add("halo exchange", meas_halo * norm, pred_halo);
  add("gradient allreduce", meas_ar * norm, pred_ar);
  if (cost.shuffle > 0 || meas_shuffle > 0) {
    add("shuffle", meas_shuffle * norm, cost.shuffle);
  }
  add("step wall", meas_step * norm, cost.minibatch_time());
  return cmp;
}

}  // namespace distconv::obs
