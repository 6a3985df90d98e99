// Metric collection and output for chameleon_benchmark.
//
// Every metric is printed on stdout as `name value unit`; an end-to-end
// metric's line also carries its in-run min/median/max and sample count.
// The last stdout line is one JSON object with exactly the keys correct,
// attempted, failed and metrics (the end-to-end rows in an untraced run, the
// per-layer rows in a traced run). `out=FILE` receives the full report:
// host metadata, every row with its spread, and every correctness check.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace chameleon::bench {

/// steady_clock nanoseconds.
Nanos now_ns();
double seconds_since(Nanos start);

inline double median(std::vector<double> values) {
  return exact_percentile(std::move(values), 50.0);
}

class Report {
 public:
  Report(std::string workload, std::uint64_t seed, bool trace, double seconds);

  /// End-to-end row. `spread` holds the in-run values behind it
  /// (repetitions, or the open loop's sub-windows) for min/median/max;
  /// `samples` is how many measurements the value rests on.
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::vector<double>& spread, std::uint64_t samples);
  /// Per-layer row.
  void layer(const std::string& name, double value, const std::string& unit);
  /// Correctness check; a failed one makes the run exit non-zero.
  void check(bool ok, const std::string& what);
  /// Measurement validity (not correctness): a run whose measurement was
  /// disturbed, e.g. an open-loop generator that fell behind, is reported
  /// as invalid in its output but still exits 0.
  void validity(bool ok, const std::string& what);
  /// Data operations issued and how many of them failed (error, exhausted
  /// retries, missed deadline).
  void add_ops(std::uint64_t attempted, std::uint64_t failed);
  /// Free-form context recorded in the out file (sizes, rates, counts).
  void note(const std::string& key, const std::string& value);

  bool correct() const;

  /// Print the rows and the final JSON line; write the full report to
  /// `out_path` unless it is empty.
  void finish(const std::string& out_path) const;

 private:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool end_to_end = false;
    double min = 0.0;
    double med = 0.0;
    double max = 0.0;
    std::uint64_t samples = 0;
  };

  std::string workload_;
  std::uint64_t seed_;
  bool trace_;
  double seconds_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> invalid_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace chameleon::bench
