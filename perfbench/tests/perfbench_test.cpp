// Tests of the benchmark's own logic: input determinism, the percentile
// rule, the metric-name charset and open-loop timing.

#include <gtest/gtest.h>

#include <vector>

#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Inputs, SameSeedSameDigestFreshSeedDifferent) {
  EXPECT_EQ(digest(molecule_samples(3, 6)), digest(molecule_samples(3, 6)));
  EXPECT_NE(digest(molecule_samples(3, 6)), digest(molecule_samples(4, 6)));
  EXPECT_EQ(digest(slab_samples(3, 2)), digest(slab_samples(3, 2)));
  EXPECT_NE(digest(slab_samples(3, 2)), digest(slab_samples(4, 2)));
  EXPECT_EQ(digest(serve_stream(3, 40)), digest(serve_stream(3, 40)));
  EXPECT_NE(digest(serve_stream(3, 40)), digest(serve_stream(4, 40)));
  EXPECT_EQ(digest(mix_dataset(3, 60000).graphs()),
            digest(mix_dataset(3, 60000).graphs()));
  EXPECT_NE(digest(mix_dataset(3, 60000).graphs()),
            digest(mix_dataset(4, 60000).graphs()));
}

TEST(Inputs, ServeStreamMix) {
  const std::vector<ServeRequest> stream = serve_stream(9, 2000);
  int repeats = 0;
  int transformed = 0;
  int forces = 0;
  std::vector<int> sources(5, 0);
  for (const ServeRequest& r : stream) {
    repeats += r.repeat_of >= 0 ? 1 : 0;
    transformed += r.transform != 0 ? 1 : 0;
    forces += r.forces ? 1 : 0;
    // Translated copies are open systems only.
    if (r.transform == 1) {
      EXPECT_FALSE(r.structure.periodic);
    }
    if (r.repeat_of < 0) ++sources[static_cast<std::size_t>(r.source)];
  }
  // The shares are exact by construction, except that a repeat drawn
  // before any fresh structure exists becomes fresh.
  EXPECT_GE(repeats, 999);
  EXPECT_LE(repeats, 1000);
  EXPECT_EQ(transformed, repeats / 2);
  EXPECT_GE(forces, 399);  // a first-request repeat role turns fresh
  EXPECT_LE(forces, 400);
  for (const int n : sources) {
    EXPECT_GE(n, 200);
    EXPECT_LE(n, 201);
  }
  // Miss-only streams: every generator sends exactly 20% force requests.
  std::vector<int> forced(5, 0);
  const std::vector<ServeRequest> fresh = serve_stream(9, 250, true);
  for (const ServeRequest& r : fresh) {
    EXPECT_EQ(r.repeat_of, -1);
    forced[static_cast<std::size_t>(r.source)] += r.forces ? 1 : 0;
  }
  for (const int n : forced) EXPECT_EQ(n, 10);
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, WantedPercentileWhenTheSampleSupportsIt) {
  // 1000 samples: p99 is rank 990 and leaves exactly 10 beyond it.
  const Tail t = tail(ramp(1000), 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_DOUBLE_EQ(t.quantile, 0.99);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(tail(ramp(200), 0.95).value, 190);
}

TEST(Percentile, LoweredUntilTenSamplesLieBeyond) {
  // 100 samples cannot support p99 or p95: the reported sample keeps ten
  // above it (value 90 of 1..100).
  const Tail t = tail(ramp(100), 0.99);
  EXPECT_EQ(t.value, 90);
  EXPECT_DOUBLE_EQ(t.quantile, 0.90);
  EXPECT_EQ(tail(ramp(100), 0.95).value, 90);
  // A percentile below the cap is not raised.
  EXPECT_EQ(tail(ramp(100), 0.50).value, 50);
  // Too few samples: the maximum, marked as quantile 1.
  EXPECT_EQ(tail(ramp(10), 0.99).value, 10);
  EXPECT_DOUBLE_EQ(tail(ramp(10), 0.99).quantile, 1.0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("tensor.matmul_bwd_gflops"));
  EXPECT_TRUE(valid_metric_name("9lives-ok.x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(OpenLoop, LatencyIsTimedFromTheScheduledSend) {
  // Due at 1.0 s, sent late at 1.3 s (a stalled generator), answered at
  // 1.4 s: the request waited 0.4 s, not 0.1 s.
  RequestTiming t;
  t.scheduled = 1.0;
  t.sent = 1.3;
  t.done = 1.4;
  EXPECT_DOUBLE_EQ(t.latency(), 0.4);
  EXPECT_NEAR(t.late(), 0.3, 1e-12);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasTheRate) {
  const std::vector<double> a = poisson_schedule(200, 50, 1);
  EXPECT_EQ(a, poisson_schedule(200, 50, 1));
  EXPECT_NE(a, poisson_schedule(200, 50, 2));
  EXPECT_NEAR(static_cast<double>(a.size()) / 50, 200, 200 * 0.05);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 50);
}

TEST(Json, NumbersRoundTrip) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(2), "2");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
}

}  // namespace
}  // namespace perfbench
