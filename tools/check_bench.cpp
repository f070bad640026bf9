// check_bench: the perf-regression gate over BENCH_*.json dumps.
//
// Accepts the distconv-bench-serve-v1 schema (bench/serve_throughput
// --json): per policy (and for the fleet section), latency percentiles may
// not regress past --lat-tol and throughput may not drop past --thru-tol.
// Correctness fields are exact: the fresh fleet run must report
// oracle_match=true and serve every request the baseline served.
//
// Usage: check_bench <baseline.json> <fresh.json>
//                    [--lat-tol 0.20] [--thru-tol 0.15]
//
// Tolerances are fractions (0.20 = +20% latency / −20% throughput headroom);
// CI passes looser values than the defaults because shared runners are
// noisy. Prints a per-metric PASS/FAIL table; exit 0 when every gate holds,
// 1 otherwise, 2 on usage/parse errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

using distconv::support::json::Value;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double num(const Value& obj, const char* key) {
  const Value& v = obj.at(key);
  if (!v.is_number()) {
    throw std::runtime_error(std::string("\"") + key + "\" is not a number");
  }
  return v.number;
}

struct Gate {
  std::string metric;
  double baseline = 0;
  double fresh = 0;
  double limit = 0;  ///< the bound the fresh value was held to
  bool pass = false;
};

std::vector<Gate> gates;
bool all_pass = true;

/// Latency-like metric: fresh may exceed baseline by at most `tol`.
void gate_latency(const std::string& name, double base, double fresh,
                  double tol) {
  Gate g{name, base, fresh, base * (1.0 + tol), false};
  g.pass = fresh <= g.limit;
  all_pass = all_pass && g.pass;
  gates.push_back(g);
}

/// Throughput-like metric: fresh may fall below baseline by at most `tol`.
void gate_throughput(const std::string& name, double base, double fresh,
                     double tol) {
  Gate g{name, base, fresh, base * (1.0 - tol), false};
  g.pass = fresh >= g.limit;
  all_pass = all_pass && g.pass;
  gates.push_back(g);
}

/// Exact metric (correctness, not performance): fresh must equal baseline.
void gate_exact(const std::string& name, double base, double fresh) {
  Gate g{name, base, fresh, base, false};
  g.pass = fresh == base;
  all_pass = all_pass && g.pass;
  gates.push_back(g);
}

const Value* find_policy(const Value& root, const std::string& name) {
  for (const Value& p : root.at("policies").array) {
    if (p.at("name").string == name) return &p;
  }
  return nullptr;
}

void check_serve(const Value& base, const Value& fresh, double lat_tol,
                 double thru_tol) {
  // Per-policy gates: every baseline policy must exist in the fresh dump
  // and hold its latency/throughput within tolerance.
  for (const Value& bp : base.at("policies").array) {
    const std::string name = bp.at("name").string;
    const Value* fp = find_policy(fresh, name);
    if (fp == nullptr) {
      throw std::runtime_error("fresh dump lost policy \"" + name + "\"");
    }
    gate_exact(name + ".requests", num(bp, "requests"), num(*fp, "requests"));
    gate_latency(name + ".p50_ms", num(bp, "p50_ms"), num(*fp, "p50_ms"),
                 lat_tol);
    gate_latency(name + ".p99_ms", num(bp, "p99_ms"), num(*fp, "p99_ms"),
                 lat_tol);
    gate_throughput(name + ".throughput_rps", num(bp, "throughput_rps"),
                    num(*fp, "throughput_rps"), thru_tol);
  }

  // Fleet gates: correctness exact, performance within tolerance.
  const Value& bf = base.at("fleet");
  const Value& ff = fresh.at("fleet");
  if (ff.at("oracle_match").boolean != true) {
    throw std::runtime_error("fresh fleet run is not oracle-bitwise-equal");
  }
  gate_exact("fleet.replicas", num(bf, "replicas"), num(ff, "replicas"));
  gate_exact("fleet.requests", num(bf, "requests"), num(ff, "requests"));
  gate_latency("fleet.p50_ms", num(bf, "p50_ms"), num(ff, "p50_ms"), lat_tol);
  gate_latency("fleet.p99_ms", num(bf, "p99_ms"), num(ff, "p99_ms"), lat_tol);
  gate_throughput("fleet.throughput_rps", num(bf, "throughput_rps"),
                  num(ff, "throughput_rps"), thru_tol);
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* fresh_path = nullptr;
  double lat_tol = 0.20;
  double thru_tol = 0.15;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lat-tol") == 0 && i + 1 < argc) {
      lat_tol = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--thru-tol") == 0 && i + 1 < argc) {
      thru_tol = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "check_bench: unknown flag '%s'\n", argv[i]);
      return 2;
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (fresh_path == nullptr) {
      fresh_path = argv[i];
    }
  }
  if (baseline_path == nullptr || fresh_path == nullptr) {
    std::fprintf(stderr,
                 "usage: check_bench <baseline.json> <fresh.json> "
                 "[--lat-tol F] [--thru-tol F]\n");
    return 2;
  }

  try {
    const Value base = distconv::support::json::parse(read_file(baseline_path));
    const Value fresh = distconv::support::json::parse(read_file(fresh_path));
    const std::string schema = base.at("schema").string;
    if (fresh.at("schema").string != schema) {
      throw std::runtime_error("schema mismatch: baseline \"" + schema +
                               "\" vs fresh \"" + fresh.at("schema").string +
                               "\"");
    }
    if (schema == "distconv-bench-serve-v1") {
      check_serve(base, fresh, lat_tol, thru_tol);
    } else {
      throw std::runtime_error("unrecognized schema \"" + schema + "\"");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check_bench: %s\n", e.what());
    return 2;
  }

  std::printf("%-28s %14s %14s %14s  %s\n", "metric", "baseline", "fresh",
              "limit", "gate");
  for (const Gate& g : gates) {
    std::printf("%-28s %14.3f %14.3f %14.3f  %s\n", g.metric.c_str(),
                g.baseline, g.fresh, g.limit, g.pass ? "PASS" : "FAIL");
  }
  std::printf("tolerances: latency +%.0f%%, throughput -%.0f%%\n",
              lat_tol * 100.0, thru_tol * 100.0);
  if (!all_pass) {
    std::fprintf(stderr, "check_bench: perf regression gate FAILED\n");
    return 1;
  }
  std::printf("check_bench: all gates passed\n");
  return 0;
}
