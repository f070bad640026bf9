#include "obs/attribution.hpp"

#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace distconv::obs {
namespace {

thread_local WaitTotals t_wait_totals;
thread_local bool t_tail_phase = false;

// Trace events shorter than this are dropped (counters still see them) so
// near-zero waits — a message that already arrived — don't flood the ring.
constexpr std::uint64_t kTraceWaitThresholdNs = 10'000;

struct WaitInstruments {
  metrics::Counter total_ns = metrics::counter("comm.wait.ns");
  metrics::Counter waits = metrics::counter("comm.waits");
  metrics::Counter tail_ns = metrics::counter("comm.wait.tail.ns");
  metrics::Counter by_cat[kWaitCategories] = {
      metrics::counter("comm.wait.halo.ns"),
      metrics::counter("comm.wait.shuffle.ns"),
      metrics::counter("comm.wait.gradreduce.ns"),
      metrics::counter("comm.wait.other.ns"),
  };
};

const WaitInstruments& wait_instruments() {
  static const WaitInstruments* w = new WaitInstruments();
  return *w;
}

struct OpCounterMap {
  std::mutex mu;
  // Keyed by the label string (not pointer): the same logical label may
  // arrive via different literal addresses across translation units.
  std::map<std::string, std::unique_ptr<CollCounters>> by_label;
};

const CollCounters& interned_counters(const char* prefix, const char* label) {
  static OpCounterMap* maps = new OpCounterMap[2];  // 0 = coll, 1 = op
  OpCounterMap& m = maps[std::strcmp(prefix, "comm.op.") == 0 ? 1 : 0];
  std::lock_guard<std::mutex> lock(m.mu);
  auto it = m.by_label.find(label);
  if (it != m.by_label.end()) return *it->second;
  auto cc = std::make_unique<CollCounters>();
  const std::string base = std::string(prefix) + label;
  cc->name = label;
  cc->count = metrics::counter(base + ".count");
  cc->bytes = metrics::counter(base + ".bytes");
  cc->ns = metrics::counter(base + ".ns");
  auto& ref = *cc;
  m.by_label.emplace(label, std::move(cc));
  return ref;
}

}  // namespace

WaitCategory classify_wait(const char* label) {
  if (!label) return WaitCategory::kOther;
  if (std::strstr(label, "halo")) return WaitCategory::kHalo;
  if (std::strstr(label, "shuffle") || std::strstr(label, "alltoall")) {
    return WaitCategory::kShuffle;
  }
  // Only Model's gradient-completion ops: blocking allreduces (batchnorm
  // statistics, the loss) and the channel-group allgathers are other.
  if (std::strcmp(label, "gradreduce") == 0) return WaitCategory::kGradReduce;
  return WaitCategory::kOther;
}

const WaitTotals& thread_wait_totals() { return t_wait_totals; }

void record_wait(const char* label, std::uint64_t ns) {
  const WaitCategory cat = classify_wait(label);
  t_wait_totals.ns[static_cast<int>(cat)] += ns;
  t_wait_totals.waits += 1;
  if (t_tail_phase) t_wait_totals.tail_ns += ns;
  const WaitInstruments& w = wait_instruments();
  w.total_ns.add(ns);
  w.waits.inc();
  w.by_cat[static_cast<int>(cat)].add(ns);
  if (t_tail_phase) w.tail_ns.add(ns);
  if (ns >= kTraceWaitThresholdNs && trace::enabled()) {
    const std::int64_t now = trace::now_ns();
    trace::emit_complete(label, "wait", now - static_cast<std::int64_t>(ns),
                         static_cast<std::int64_t>(ns));
  }
}

TailPhase::TailPhase() : prev_(t_tail_phase) { t_tail_phase = true; }
TailPhase::~TailPhase() { t_tail_phase = prev_; }
bool in_tail_phase() { return t_tail_phase; }

const CollCounters& coll_counters(const char* name) {
  return interned_counters("comm.coll.", name);
}

const CollCounters& op_counters(const char* label) {
  return interned_counters("comm.op.", label);
}

CollectiveScope::~CollectiveScope() {
  if (!cc_) return;
  const std::int64_t dur = trace::now_ns() - t0_;
  cc_->count.inc();
  cc_->bytes.add(bytes_);
  cc_->ns.add(dur > 0 ? static_cast<std::uint64_t>(dur) : 0);
  if (trace::enabled()) {
    trace::Arg args[2] = {{"bytes", static_cast<double>(bytes_)},
                          {"rounds", static_cast<double>(rounds_)}};
    trace::emit_complete(cc_->name, "coll", t0_, dur, args, 2);
  }
}

void record_nb_op(const char* label, std::int64_t t0_ns, std::uint64_t bytes) {
  const std::int64_t dur = trace::now_ns() - t0_ns;
  const CollCounters& cc = op_counters(label);
  cc.count.inc();
  cc.bytes.add(bytes);
  cc.ns.add(dur > 0 ? static_cast<std::uint64_t>(dur) : 0);
  if (trace::enabled()) {
    // A nonblocking op lives from enqueue to retirement, crossing whatever
    // spans the retiring thread opened in between — a complete ('X') event
    // here would overlap those spans without nesting. Mark the retirement as
    // an instant and carry the in-flight duration as an arg instead.
    trace::Arg args[2] = {{"bytes", static_cast<double>(bytes)},
                          {"inflight_us", static_cast<double>(dur) / 1e3}};
    trace::emit_instant(label, "comm", args, 2);
  }
}

}  // namespace distconv::obs
