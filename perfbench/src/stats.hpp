#pragma once

// Sample statistics and output helpers shared by every workload. Pure
// functions, covered by tests/perfbench_test.cpp.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile as reported: the value, the percentile actually used (in
/// [0, 1]) and the number of samples it was read from.
struct Tail {
  double value = 0;
  double quantile = 0;
  std::size_t samples = 0;
};

/// Median of `values`: the mean of the two middle samples for an even count.
double median(std::vector<double> values);

/// The `wanted` percentile of `values`, lowered when the sample is too small
/// so that at least ten samples lie beyond the reported one: the benchmark
/// never reports a percentile the sample cannot support. Needs >= 11 values;
/// with fewer it returns the maximum and quantile 1.
Tail tail(std::vector<double> values, double wanted);

/// True when `name` is a valid metric or workload name: starts with a letter
/// or digit and is made of at most 64 letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);

/// Open-loop request timing. Latency is measured from the moment the request
/// was DUE to be sent, so a stalled generator or a full queue shows up in the
/// latency of every request scheduled behind the stall.
struct RequestTiming {
  double scheduled = 0;  ///< seconds since phase start the request was due
  double sent = 0;       ///< seconds since phase start submit() was called
  double done = 0;       ///< seconds since phase start the reply arrived
  double latency() const { return done - scheduled; }
  double late() const { return sent - scheduled; }
};

/// Arrival offsets (seconds) of a Poisson process of `rate` per second over
/// [0, duration), drawn from `seed`.
std::vector<double> poisson_schedule(double rate, double duration,
                                     std::uint64_t seed);

/// 64-bit FNV-1a over raw bytes, continuing from `hash`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Shortest decimal text that reads back as the same double ("%.17g"),
/// locale-independent; non-finite values print as null.
std::string json_number(double value);

}  // namespace perfbench
