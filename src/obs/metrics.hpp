#pragma once

// Process-global metrics registry (§ observability). Counters, gauges and
// log2-bucketed histograms with an O(1) hot path: every (thread, rank) pair
// owns a shard of relaxed atomics indexed by interned metric id, and readers
// merge the shards grouped by rank. Nothing on the write path takes a lock
// after the handle is interned, so instruments can live inside Mailbox::wait
// and the progress engine without perturbing them.
//
// Naming scheme (see README "Observability"): comm.*, serve.*, fault.*,
// step.*, layer.<i>.*. Collection is off unless DC_METRICS=<path> is set or
// a test calls set_enabled(true); when off, Counter::add is a relaxed load
// plus a branch. The registry is cumulative across World::run sessions;
// call reset() to zero it between measured phases.

#include <cstdint>
#include <map>
#include <string>

namespace distconv::obs::metrics {

/// Collection switch. Initialized lazily from the DC_METRICS environment
/// variable (set and non-empty => enabled); set_enabled overrides.
bool enabled();
void set_enabled(bool on);

/// Path from DC_METRICS, or empty when unset. World::run dumps here on exit.
const std::string& configured_path();

/// Interned counter handle. Copyable, trivially destructible; safe to keep
/// in long-lived objects. add() attributes the value to the calling
/// thread's current rank (log::thread_rank(); -1 aggregates as "process").
class Counter {
 public:
  Counter() = default;
  explicit Counter(int id) : id_(id) {}
  void add(std::uint64_t v) const;
  void inc() const { add(1); }

 private:
  int id_ = 0;  // id 0 is the shared overflow slot "obs.dropped"
};

/// Interned gauge handle (process-global last-value; not rank-sharded).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(int id) : id_(id) {}
  void set(std::int64_t v) const;
  void add(std::int64_t delta) const;

 private:
  int id_ = 0;
};

/// Interned histogram handle: count/sum/min/max plus log2 buckets, merged
/// per rank like counters. Values are whatever unit the caller records
/// (durations in ns or us, batch sizes, ...).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(int id) : id_(id) {}
  void record(std::uint64_t v) const;

 private:
  int id_ = 0;
};

/// Intern a metric by name (idempotent; the registry owns a copy of the
/// name). When the fixed table is full the shared "obs.dropped" slot is
/// returned so hot paths never fail.
Counter counter(const std::string& name);
Gauge gauge(const std::string& name);
Histogram histogram(const std::string& name);

/// Convenience slow-path helpers (intern + write in one call).
void add_named(const std::string& name, std::uint64_t v);
void inc_named(const std::string& name);

/// Point-in-time merge of every shard, grouped by rank (-1 = threads that
/// never carried a rank: pool workers, test drivers).
struct Snapshot {
  struct Hist {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double p50 = 0;  ///< bucket-resolution approximations
    double p99 = 0;
  };
  std::map<int, std::map<std::string, std::uint64_t>> counters;
  std::map<int, std::map<std::string, Hist>> histograms;
  std::map<std::string, std::int64_t> gauges;

  /// Counter summed over every rank (including the -1 process bucket).
  std::uint64_t counter_total(const std::string& name) const;
  /// Counter for one rank (0 when absent).
  std::uint64_t counter_for(int rank, const std::string& name) const;
};

Snapshot snapshot();

/// Zero every shard and gauge; interned names survive.
void reset();

/// JSON rendering: {"ranks": {"0": {"counters": {...}, "histograms":
/// {...}}, ...}, "process": {...}, "gauges": {...}}.
std::string to_json(const Snapshot& snap);

/// snapshot() + to_json + atomic file write (tmp + fsync + rename).
void dump(const std::string& path);

}  // namespace distconv::obs::metrics
