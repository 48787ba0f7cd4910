// Machine-readable microbench results (DESIGN.md §12): each bench binary
// that prints a human-readable table also drops a BENCH_<name>.json next to
// it so regressions can be tracked across commits without scraping stdout.
// The schema is deliberately tiny and self-describing:
//
//   {
//     "benchmark": "overlap",
//     "config":  { "device": "GTX 1080", "chunks": "8" },
//     "metrics": { "inorder_wall": {"median_ns":..., "p10_ns":..., "p90_ns":...} },
//     "values":  { "modeled_speedup": 1.61 },
//     "speedup": 1.61
//   }
//
// "metrics" carries sampled timings as median/p10/p90 (the same robust
// statistics the harness reports; means are noise-prone in a shared
// container).  "values" carries deterministic scalars — modeled times,
// ratios, rates.  "speedup" repeats the bench's headline ratio so CI can
// gate on one well-known key.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace eod::bench {

struct Percentiles {
  double median_ns = 0.0;
  double p10_ns = 0.0;
  double p90_ns = 0.0;
};

/// Order statistics over raw nanosecond samples.  Uses the nearest-rank
/// method; an empty sample set yields all zeros rather than a throw, so a
/// bench that was skipped still writes a well-formed file.
[[nodiscard]] inline Percentiles percentiles(std::vector<double> ns) {
  Percentiles p;
  if (ns.empty()) return p;
  std::sort(ns.begin(), ns.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(ns.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, ns.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return ns[lo] + (ns[hi] - ns[lo]) * frac;
  };
  p.p10_ns = at(0.10);
  p.median_ns = at(0.50);
  p.p90_ns = at(0.90);
  return p;
}

/// Accumulates one benchmark's results and serialises them to
/// BENCH_<name>.json in the working directory (or an explicit path).
class BenchReport {
 public:
  explicit BenchReport(std::string benchmark)
      : benchmark_(std::move(benchmark)) {}

  /// Free-form configuration recorded with the run (device, sizes, reps).
  void config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }
  void config(std::string key, double value) {
    config_.emplace_back(std::move(key), number(value));
  }

  /// A sampled timing: raw ns observations reduced to median/p10/p90.
  void metric(std::string name, const std::vector<double>& samples_ns) {
    metrics_.emplace_back(std::move(name), percentiles(samples_ns));
  }

  /// A deterministic scalar (modeled seconds, a ratio, a rate).
  void value(std::string name, double v) {
    values_.emplace_back(std::move(name), v);
  }

  /// The bench's headline ratio; also mirrored into "values".
  void speedup(double x) { speedup_ = x; }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\n  \"benchmark\": \"";
    out += obs::json_escape(benchmark_);
    out += '"';
    // Built by append rather than `"lit" + std::string` chains: GCC 12's
    // -Wrestrict issues a false positive on small-literal concatenation
    // at -O3 (PR105651), and the bench tree builds with -Werror in CI.
    out += ",\n  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      out += i ? ", " : "";
      out += '"';
      out += obs::json_escape(config_[i].first);
      out += "\": \"";
      out += obs::json_escape(config_[i].second);
      out += '"';
    }
    out += "},\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Percentiles& p = metrics_[i].second;
      out += i ? ", " : "";
      out += '"';
      out += obs::json_escape(metrics_[i].first);
      out += "\": {\"median_ns\": ";
      out += number(p.median_ns);
      out += ", \"p10_ns\": ";
      out += number(p.p10_ns);
      out += ", \"p90_ns\": ";
      out += number(p.p90_ns);
      out += '}';
    }
    out += "},\n  \"values\": {";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      out += i ? ", " : "";
      out += '"';
      out += obs::json_escape(values_[i].first);
      out += "\": ";
      out += number(values_[i].second);
    }
    out += "},\n  \"speedup\": ";
    out += number(speedup_);
    out += "\n}\n";
    return out;
  }

  /// Writes BENCH_<benchmark>.json (or `path` when given).  Returns false
  /// when the file cannot be opened; benches report but do not fail on it.
  bool write(const std::string& path = {}) const {
    const std::string target =
        path.empty() ? "BENCH_" + benchmark_ + ".json" : path;
    std::FILE* f = std::fopen(target.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = to_json();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  static std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string benchmark_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, Percentiles>> metrics_;
  std::vector<std::pair<std::string, double>> values_;
  double speedup_ = 0.0;
};

}  // namespace eod::bench
