#include "common.hpp"

#include <algorithm>
#include <thread>

#include "sgnn/graph/graph.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace sgnn;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kTiming: return "timing";
    case Kind::kExact: return "exact";
    case Kind::kModeled: return "modeled";
    case Kind::kValue: return "value";
  }
  return "?";
}

void Result::set(const std::string& name, double value,
                 const std::string& unit, Kind kind) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric = Metric{name, value, unit, kind};
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit, kind});
}

void Result::describe(const std::string& key, const std::string& value) {
  descriptor.emplace_back(key, value);
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

const Metric* Result::find(const std::string& name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

ModelConfig model_config() {
  ModelConfig config;
  config.hidden_dim = 64;
  config.num_layers = 3;
  return config;
}

void neighbor_probe(Result& result,
                    const std::vector<const AtomicStructure*>& structures,
                    SpanRecorder* spans) {
  double edges = 0;
  double atoms = 0;
  const Clock::time_point begin = Clock::now();
  for (const AtomicStructure* structure : structures) {
    const Scope span(spans, "graph.neighbor", 0);
    const MolecularGraph graph =
        MolecularGraph::from_structure(*structure, model_config().cutoff);
    edges += static_cast<double>(graph.num_edges());
    atoms += static_cast<double>(graph.num_nodes());
  }
  result.set("graph.neighbor_s",
             seconds_since(begin) / static_cast<double>(structures.size()), "s");
  result.set("graph.edges_per_atom", edges / atoms, "count", Kind::kExact);
}

int machine_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void describe_machine(Result& result, const Options& options) {
#if defined(__x86_64__)
  const std::string arch = "x86-64";
  const std::string simd = "avx2+fma";
#elif defined(__aarch64__)
  const std::string arch = "aarch64";
  const std::string simd = "neon";
#else
  const std::string arch = "other";
  const std::string simd = "none";
#endif
  result.describe("workload", options.workload);
  result.describe("seed", std::to_string(options.seed));
  result.describe("nproc", std::to_string(machine_threads()));
  result.describe("isa", kernels::simd_available() ? arch + " " + simd : arch);
  result.describe("backend", kernels::backend_name(kernels::active_backend()));
  result.describe("compute_dtype",
                  kernels::dtype_name(kernels::active_compute_dtype()));
  result.describe("build_type", PERFBENCH_BUILD_TYPE);
  result.describe("model", "EGNN width 64 x depth 3");
}

void StepClock::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  last_ = Clock::now();
  first_ = true;
}

void StepClock::on_step(const obs::StepTelemetry& step) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(step);
  if (step.rank != timed_rank_) return;
  // Before the first step the trainer builds its replicas, optimizers and
  // rank threads; that set-up is not a step, so the first step is timed by
  // the trainer's own step clock instead.
  step_seconds_.push_back(
      first_ ? step.step_seconds
             : std::chrono::duration<double>(now - last_).count());
  first_ = false;
  last_ = now;
}

std::vector<double> StepClock::step_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return step_seconds_;
}

std::vector<obs::StepTelemetry> StepClock::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void set_step_metrics(Result& result, const std::vector<double>& steps) {
  result.set("step_p50_s", median(steps), "s");
  const Tail t = tail(steps, 0.95);
  result.set("step_p95_s", t.value, "s");
  result.describe("step_samples", std::to_string(t.samples));
  result.describe("step_p95_s.quantile", json_number(t.quantile));
}

void set_tensor_metrics(Result& result, const obs::prof::Report& report,
                        double steps, double step_wall, int ranks) {
  double kernel_s = 0;
  double flops = 0;
  double bytes = 0;
  double calls = 0;
  for (const obs::prof::KernelRow& row : report.kernels) {
    kernel_s += row.seconds;
    flops += static_cast<double>(row.flops);
    bytes += static_cast<double>(row.bytes);
    calls += static_cast<double>(row.calls);
  }
  // Kernel seconds are summed over the rank threads; per rank and step they
  // compare with the step's wall time.
  const double per_rank_kernel = kernel_s / ranks / steps;
  result.set("tensor.kernel_s_per_step", per_rank_kernel, "s");
  result.set("tensor.overhead_s_per_step", step_wall / steps - per_rank_kernel,
             "s");
  result.set("tensor.gflop_per_step", flops / steps / 1e9, "GFLOP",
             Kind::kExact);
  result.set("tensor.gbyte_per_step", bytes / steps / 1e9, "GB",
             Kind::kExact);
  result.set("tensor.kernel_calls_per_step", calls / steps, "count",
             Kind::kExact);
  const char* kernels[] = {"matmul",  "matmul.bwd", "index_select",
                           "scatter_add", "silu", "add", "reduce_to"};
  for (const char* kernel : kernels) {
    std::string key(kernel);
    std::replace(key.begin(), key.end(), '.', '_');
    double seconds = 0;
    double gflops = 0;
    for (const obs::prof::KernelRow& row : report.kernels) {
      if (row.name == kernel) {
        seconds = row.seconds;
        gflops = row.gflops;
      }
    }
    result.set("tensor." + key + "_s", seconds / steps, "s");
    result.set("tensor." + key + "_gflops", gflops, "GFLOP/s");
  }
}

void set_peak_breakdown(Result& result, const MemBreakdown& peak) {
  result.set("tensor.peak_activation_mib",
             static_cast<double>(peak.of(MemCategory::kActivation)) / kMiB,
             "MiB", Kind::kValue);
  result.set("tensor.peak_optimizer_mib",
             static_cast<double>(peak.of(MemCategory::kOptimizerState)) / kMiB,
             "MiB", Kind::kValue);
}

void set_self_times(Result& result, const SpanRecorder& spans, double steps) {
  const auto by_layer = spans.self_seconds_by_layer();
  for (const char* layer : {"data", "graph", "nn", "train", "ckpt", "serve"}) {
    const auto it = by_layer.find(layer);
    result.set(std::string("self.") + layer + "_s",
               it == by_layer.end() ? 0.0 : it->second / steps, "s");
  }
}

}  // namespace perfbench
