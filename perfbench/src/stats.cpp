#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "sgnn/util/rng.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values, double wanted) {
  Tail out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    out.value = values.back();
    out.quantile = 1;
    return out;
  }
  // Nearest rank of the wanted percentile, capped so that ten samples stay
  // strictly beyond it: index n - 11 leaves exactly ten above.
  const auto rank = static_cast<std::size_t>(
      std::ceil(wanted * static_cast<double>(n) - 1e-9));
  const std::size_t index = std::min(rank == 0 ? 0 : rank - 1, n - 11);
  out.value = values[index];
  out.quantile = static_cast<double>(index + 1) / static_cast<double>(n);
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::vector<double> poisson_schedule(double rate, double duration,
                                     std::uint64_t seed) {
  std::vector<double> offsets;
  if (rate <= 0 || duration <= 0) return offsets;
  sgnn::Rng rng(seed);
  double t = 0;
  while (true) {
    // Exponential gap by inversion; 1 - u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    offsets.push_back(t);
  }
  return offsets;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // snprintf follows LC_NUMERIC; the benchmark never changes the C locale,
  // but normalise a decimal comma anyway so the JSON stays valid.
  for (char* p = buffer; *p != '\0'; ++p) {
    if (*p == ',') *p = '.';
  }
  return buffer;
}

}  // namespace perfbench
