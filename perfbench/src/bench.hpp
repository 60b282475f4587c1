#pragma once

// Types shared by the workloads and main.cpp.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir;  ///< where the span file is written
};

/// How a reported number was obtained.
enum class Kind {
  kTiming,   ///< measured wall time or a ratio of measured times
  kExact,    ///< a count that repeats exactly for one seed
  kModeled,  ///< computed from a model (the name says "modeled")
  kValue,    ///< a measured non-time quantity (loss, memory, share)
};
const char* kind_name(Kind kind);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Kind kind = Kind::kTiming;
};

/// Everything one workload run reports.
struct Result {
  std::vector<Metric> metrics;
  /// Run descriptor printed beside the numbers (machine, ranks, lanes...).
  std::vector<std::pair<std::string, std::string>> descriptor;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Output checks that did not hold; any entry fails the run.
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit,
           Kind kind = Kind::kTiming);
  void describe(const std::string& key, const std::string& value);
  void check(bool ok, const std::string& what);
  const Metric* find(const std::string& name) const;
};

/// Workload entry points. `spans` is null in the untraced run.
Result run_train_mix(const Options& options, SpanRecorder* spans);
Result run_train_zero(const Options& options, SpanRecorder* spans);
Result run_train_gpar(const Options& options, SpanRecorder* spans);
Result run_serve_open(const Options& options, SpanRecorder* spans);

}  // namespace perfbench
