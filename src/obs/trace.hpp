#pragma once

// Chrome "Trace Event Format" tracing (§ observability). Every thread owns
// a fixed-capacity ring of POD events — recording never allocates mid-step
// and overwrites the oldest events when full — and dump() writes one
// chrome://tracing / Perfetto-loadable JSON file per rank
// (<dir>/trace-rank<r>.json, plus trace-process.json for rank-less
// threads). Spans are emitted as complete events ('X') at destruction, so
// ring overwrite can only drop whole spans, never break nesting.
//
// Event names and categories must be string literals (or otherwise outlive
// the dump): the ring stores the pointers, not copies.
//
// Off unless DC_TRACE_DIR=<dir> is set or a test calls set_enabled(true);
// DC_TRACE_BUF overrides the per-thread ring capacity (default 16384).
//
// Ring overwrite is counted: dropped_total() reports how many events were
// lost to wraparound since the last reset(), and every overwrite bumps the
// "obs.trace.dropped" metrics counter. The streaming flusher (obs/stream)
// calls drain_segments() periodically so long runs never wrap.

#include <cstdint>
#include <string>
#include <vector>

namespace distconv::obs::trace {

bool enabled();
void set_enabled(bool on);

/// Directory from DC_TRACE_DIR, or empty. World::run dumps here on exit.
const std::string& configured_dir();

/// Per-thread ring capacity for rings created after the call (tests use a
/// tiny ring to exercise wraparound). Initialized from DC_TRACE_BUF.
void set_capacity(std::size_t events);

/// Reads DC_TRACE_BUF now: 16384 when unset, empty or 0; throws an Error
/// naming the variable unless it is an integer in [0, 2^30].
std::size_t capacity_from_env();

/// Nanoseconds on the steady clock since a process-wide epoch (first call).
std::int64_t now_ns();

/// Up to this many numeric args per event.
constexpr int kMaxArgs = 4;

struct Arg {
  const char* key;
  double value;
};

/// Record a complete event ('X') covering [ts_ns, ts_ns + dur_ns).
void emit_complete(const char* name, const char* cat, std::int64_t ts_ns,
                   std::int64_t dur_ns, const Arg* args = nullptr,
                   int nargs = 0);

/// Record an instant event ('i', thread scope).
void emit_instant(const char* name, const char* cat, const Arg* args = nullptr,
                  int nargs = 0);

/// RAII span: captures the clock at construction when tracing is enabled
/// and emits a complete event at destruction. `name` and `cat` must be
/// string literals. args() attaches up to kMaxArgs numeric arguments.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "op") {
    if (enabled()) {
      name_ = name;
      cat_ = cat;
      t0_ = now_ns();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void arg(const char* key, double value) {
    if (name_ && nargs_ < kMaxArgs) {
      args_[nargs_].key = key;
      args_[nargs_].value = value;
      ++nargs_;
    }
  }
  ~Span() {
    if (name_) emit_complete(name_, cat_, t0_, now_ns() - t0_, args_, nargs_);
  }

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t t0_ = 0;
  Arg args_[kMaxArgs] = {};
  int nargs_ = 0;
};

/// Write one trace-rank<r>.json per rank seen so far (atomic writes;
/// events sorted by thread then timestamp). Creates `dir` if missing.
void dump(const std::string& dir);

/// Move every retained event out of the rings into a new rotated segment
/// (<dir>/trace-seg<NNNNN>-rank<r>.json, one file per rank plus -process
/// for rank-less threads; atomic tmp+rename per file). Rings are left
/// empty, so a periodic drain keeps wraparound losses at zero. Returns the
/// number of events written; when `files` is non-null the paths of the
/// segment files written by this call are appended to it. Segments use the
/// same JSON shape as dump() so any trace-*.json consumer can read them.
std::size_t drain_segments(const std::string& dir,
                           std::vector<std::string>* files = nullptr);

/// Events lost to ring wraparound since the last reset(). Mirrored in the
/// "obs.trace.dropped" metrics counter when metrics are enabled.
std::uint64_t dropped_total();

/// Drop every buffered event and zero drop/segment accounting (tests).
void reset();

}  // namespace distconv::obs::trace
