#include "obs/trace.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "support/atomic_file.hpp"
#include "support/env.hpp"
#include "support/logging.hpp"

namespace distconv::obs::trace {
namespace {

struct Event {
  const char* name;
  const char* cat;
  std::int64_t ts_ns;
  std::int64_t dur_ns;
  char ph;  // 'X' complete, 'i' instant
  int nargs;
  Arg args[kMaxArgs];
};

// One ring per (thread, rank) pair; rings are registry-owned and never
// freed so a dump can outlive the emitting thread. The per-ring mutex is
// only ever contended by dump()/reset(), so the record path is an
// uncontended lock plus a store.
struct Ring {
  std::mutex mu;
  int rank;
  int tid;
  std::vector<Event> buf;
  std::size_t next = 0;   // ring cursor
  std::size_t count = 0;  // total recorded (min(count, capacity) retained)
  Ring(int r, int t, std::size_t capacity) : rank(r), tid(t) {
    buf.resize(capacity);
  }
  /// Returns true when the push overwrote (dropped) the oldest event.
  bool push(const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (buf.empty()) return false;
    const bool overwrote = count >= buf.size();
    buf[next] = e;
    next = (next + 1) % buf.size();
    ++count;
    return overwrote;
  }
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
  int next_tid = 1;
};

TraceRegistry& registry() {
  static TraceRegistry* r = new TraceRegistry();
  return *r;
}

std::atomic<int> g_enabled{-1};
std::atomic<std::size_t> g_capacity{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<unsigned> g_segment_seq{0};

// Wraparound losses are mirrored into the metrics registry so dashboards
// and check_obs_dump see them without parsing trace files. The bump happens
// outside the ring mutex: intern takes the metrics registry lock once.
void count_drop() {
  g_dropped.fetch_add(1, std::memory_order_relaxed);
  static const metrics::Counter dropped = metrics::counter("obs.trace.dropped");
  dropped.inc();
}

std::size_t capacity() {
  std::size_t c = g_capacity.load(std::memory_order_relaxed);
  if (c == 0) {
    c = capacity_from_env();
    g_capacity.store(c, std::memory_order_relaxed);
  }
  return c;
}

struct ThreadRing {
  int rank = -2;
  Ring* ring = nullptr;
};
thread_local ThreadRing t_ring;

Ring& thread_ring() {
  const int r = log::thread_rank();
  if (t_ring.rank != r || !t_ring.ring) {
    TraceRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.rings.push_back(std::make_unique<Ring>(r, reg.next_tid++, capacity()));
    t_ring.rank = r;
    t_ring.ring = reg.rings.back().get();
  }
  return *t_ring.ring;
}

void fill_args(Event& e, const Arg* args, int nargs) {
  e.nargs = std::min(nargs, kMaxArgs);
  for (int i = 0; i < e.nargs; ++i) e.args[i] = args[i];
}

void append_event_json(std::string& out, const Event& e, int tid) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,",
                e.name, e.cat, e.ph,
                static_cast<double>(e.ts_ns) / 1000.0);
  out += buf;
  if (e.ph == 'X') {
    std::snprintf(buf, sizeof(buf), "\"dur\":%.3f,",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out += buf;
  } else if (e.ph == 'i') {
    out += "\"s\":\"t\",";
  }
  std::snprintf(buf, sizeof(buf), "\"pid\":0,\"tid\":%d", tid);
  out += buf;
  if (e.nargs > 0) {
    out += ",\"args\":{";
    for (int i = 0; i < e.nargs; ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g", i ? "," : "",
                    e.args[i].key, e.args[i].value);
      out += buf;
    }
    out += "}";
  }
  out += "}";
}

}  // namespace

bool enabled() {
  int e = g_enabled.load(std::memory_order_relaxed);
  if (e < 0) {
    const char* dir = std::getenv("DC_TRACE_DIR");
    e = (dir && *dir) ? 1 : 0;
    g_enabled.store(e, std::memory_order_relaxed);
  }
  return e == 1;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

const std::string& configured_dir() {
  static const std::string dir = [] {
    const char* d = std::getenv("DC_TRACE_DIR");
    return std::string(d ? d : "");
  }();
  return dir;
}

std::size_t capacity_from_env() {
  const std::int64_t v = env_int("DC_TRACE_BUF", 0, std::int64_t{1} << 30);
  return v > 0 ? static_cast<std::size_t>(v) : 16384;
}

void set_capacity(std::size_t events) {
  g_capacity.store(events == 0 ? 1 : events, std::memory_order_relaxed);
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void emit_complete(const char* name, const char* cat, std::int64_t ts_ns,
                   std::int64_t dur_ns, const Arg* args, int nargs) {
  if (!enabled()) return;
  Event e{};
  e.name = name;
  e.cat = cat;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.ph = 'X';
  fill_args(e, args, nargs);
  if (thread_ring().push(e)) count_drop();
}

void emit_instant(const char* name, const char* cat, const Arg* args,
                  int nargs) {
  if (!enabled()) return;
  Event e{};
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  e.dur_ns = 0;
  e.ph = 'i';
  fill_args(e, args, nargs);
  if (thread_ring().push(e)) count_drop();
}

namespace {

struct Rec {
  Event e;
  int tid;
};

/// Retained events grouped by rank (rank -1 => "process" file), oldest
/// first per ring. With `drain` the rings are emptied as they are read, so
/// subsequent calls only see newer events.
std::map<int, std::vector<Rec>> collect(bool drain) {
  std::map<int, std::vector<Rec>> by_rank;
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& ring : reg.rings) {
    std::lock_guard<std::mutex> rl(ring->mu);
    const std::size_t cap = ring->buf.size();
    const std::size_t n = std::min(ring->count, cap);
    // Oldest retained event first: when wrapped, the cursor points at it.
    const std::size_t start = ring->count > cap ? ring->next : 0;
    for (std::size_t i = 0; i < n; ++i) {
      by_rank[ring->rank].push_back(
          Rec{ring->buf[(start + i) % cap], ring->tid});
    }
    if (drain) {
      ring->next = 0;
      ring->count = 0;
    }
  }
  return by_rank;
}

std::string render_rank_json(int rank, std::vector<Rec>& recs) {
  std::stable_sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.e.ts_ns < b.e.ts_ns;
  });
  std::string out = "{\"traceEvents\":[\n";
  char meta[128];
  std::snprintf(meta, sizeof(meta),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
                "{\"name\":\"rank %d\"}}",
                rank);
  out += meta;
  for (const auto& rec : recs) {
    out += ",\n";
    append_event_json(out, rec.e, rec.tid);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

void dump(const std::string& dir) {
  ::mkdir(dir.c_str(), 0775);  // single level; EEXIST is fine
  auto by_rank = collect(/*drain=*/false);
  for (auto& [rank, recs] : by_rank) {
    const std::string file =
        rank < 0 ? dir + "/trace-process.json"
                 : dir + "/trace-rank" + std::to_string(rank) + ".json";
    support::write_file_atomic(file, render_rank_json(rank, recs));
  }
}

std::size_t drain_segments(const std::string& dir,
                           std::vector<std::string>* files) {
  ::mkdir(dir.c_str(), 0775);
  auto by_rank = collect(/*drain=*/true);
  std::size_t events = 0;
  for (auto& [rank, recs] : by_rank) events += recs.size();
  if (events == 0) return 0;
  char seg[16];
  std::snprintf(seg, sizeof(seg), "%05u",
                g_segment_seq.fetch_add(1, std::memory_order_relaxed));
  for (auto& [rank, recs] : by_rank) {
    if (recs.empty()) continue;
    const std::string file =
        dir + "/trace-seg" + seg +
        (rank < 0 ? std::string("-process") : "-rank" + std::to_string(rank)) +
        ".json";
    support::write_file_atomic(file, render_rank_json(rank, recs));
    if (files) files->push_back(file);
  }
  return events;
}

std::uint64_t dropped_total() {
  return g_dropped.load(std::memory_order_relaxed);
}

void reset() {
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& ring : reg.rings) {
    std::lock_guard<std::mutex> rl(ring->mu);
    ring->next = 0;
    ring->count = 0;
  }
  g_dropped.store(0, std::memory_order_relaxed);
  g_segment_seq.store(0, std::memory_order_relaxed);
}

}  // namespace distconv::obs::trace
