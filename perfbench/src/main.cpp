// perfbench: the repository benchmark binary.
//
//   perfbench --workload <train_mix|train_zero|train_gpar|serve_open>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the run descriptor, a table of every metric with its unit and kind
// (timing / exact / modeled / value), and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set (the traced run
// also writes its spans to <out-dir>/spans_<workload>_<seed>.json). Exits
// non-zero when an output check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

// Name and unit as listed in BENCHMARK.json.
struct Spec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported by every workload (see README.md for
// what each means on the training and serving workloads). The open-loop
// latencies and the sustainable rate exist on serve_open only and spread
// too much between runs on a shared machine to carry a bound; they are
// reported with the per-layer metrics of the serve layer.
const std::vector<Spec>& end_to_end() {
  static const std::vector<Spec> specs = {
      {"setup_s", "s"},
      {"atoms_per_s", "1/s"},
      {"step_p50_s", "s"},
      {"step_p95_s", "s"},
      {"loss_final", "loss"},
      {"peak_mib", "MiB"},
  };
  return specs;
}

// The per-layer metrics; a workload that does not run a layer reports 0.
const std::vector<Spec>& per_layer() {
  static const std::vector<Spec> specs = {
      {"data.generate_s", "s"},
      {"data.next_s", "s"},
      {"store.remote_fetches_per_step", "count"},
      {"store.remote_bytes_per_step", "B"},
      {"graph.neighbor_s", "s"},
      {"graph.partition_s", "s"},
      {"graph.edges_per_atom", "count"},
      {"tensor.kernel_s_per_step", "s"},
      {"tensor.overhead_s_per_step", "s"},
      {"tensor.gflop_per_step", "GFLOP"},
      {"tensor.gbyte_per_step", "GB"},
      {"tensor.kernel_calls_per_step", "count"},
      {"tensor.tape_nodes_per_step", "count"},
      {"tensor.matmul_s", "s"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"tensor.matmul_bwd_s", "s"},
      {"tensor.matmul_bwd_gflops", "GFLOP/s"},
      {"tensor.index_select_s", "s"},
      {"tensor.index_select_gflops", "GFLOP/s"},
      {"tensor.scatter_add_s", "s"},
      {"tensor.scatter_add_gflops", "GFLOP/s"},
      {"tensor.silu_s", "s"},
      {"tensor.silu_gflops", "GFLOP/s"},
      {"tensor.add_s", "s"},
      {"tensor.add_gflops", "GFLOP/s"},
      {"tensor.reduce_to_s", "s"},
      {"tensor.reduce_to_gflops", "GFLOP/s"},
      {"tensor.peak_activation_mib", "MiB"},
      {"tensor.peak_optimizer_mib", "MiB"},
      {"nn.forward_s", "s"},
      {"nn.backward_s", "s"},
      {"nn.loss_s", "s"},
      {"train.optim_s", "s"},
      {"train.dist_compute_s_per_step", "s"},
      {"train.rank_skew", "ratio"},
      {"train.weak_scaling_eff", "ratio"},
      {"train.gpar_eff", "ratio"},
      {"train.halo_bytes_per_step", "B"},
      {"train.halo_exchanges_per_step", "count"},
      {"train.halo_exposed_modeled_s", "s"},
      {"comm.bytes_per_step", "B"},
      {"comm.calls_per_step", "count"},
      {"comm.buckets_per_step", "count"},
      {"comm.exposed_modeled_s", "s"},
      {"ckpt.save_s", "s"},
      {"ckpt.bytes_per_save", "B"},
      {"lat_r1_p50_s", "s"},
      {"lat_r1_p99_s", "s"},
      {"lat_r2_p50_s", "s"},
      {"lat_r2_p99_s", "s"},
      {"lat_r3_p50_s", "s"},
      {"lat_r3_p99_s", "s"},
      {"max_rate_rps", "1/s"},
      {"serve.submit_s", "s"},
      {"serve.hit_p50_s", "s"},
      {"serve.miss_p50_s", "s"},
      {"serve.miss_p99_s", "s"},
      {"serve.force_miss_p50_s", "s"},
      {"serve.cache_hit_share", "ratio"},
      {"serve.batch_graphs_mean", "count"},
      {"serve.backlog_max", "count"},
      {"serve.gen_late_p99_s", "s"},
      {"fail_share", "ratio"},
      {"trace.overhead_s", "s"},
      {"self.data_s", "s"},
      {"self.graph_s", "s"},
      {"self.nn_s", "s"},
      {"self.train_s", "s"},
      {"self.ckpt_s", "s"},
      {"self.serve_s", "s"},
  };
  return specs;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <train_mix|train_zero|"
               "train_gpar|serve_open> --seed <n> --seconds <s> --trace <0|1>"
               " [--out-dir <dir>]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.out_dir = ".bench_build/perfbench/out";
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && parse_u64(value, number)) {
      options.seed = number;
    } else if (arg == "--seconds" && parse_u64(value, number) && number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      trace_given = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage("bad argument " + arg + " " + value);
    }
  }
  if (!trace_given) return usage("--trace is required");

  Result (*run)(const Options&, SpanRecorder*) = nullptr;
  if (options.workload == "train_mix") run = &run_train_mix;
  if (options.workload == "train_zero") run = &run_train_zero;
  if (options.workload == "train_gpar") run = &run_train_gpar;
  if (options.workload == "serve_open") run = &run_serve_open;
  if (run == nullptr) return usage("unknown workload '" + options.workload + "'");

  std::filesystem::create_directories(options.out_dir);
  SpanRecorder spans;
  Result result;
  try {
    result = run(options, options.trace ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/spans_" + options.workload +
                             "_" + std::to_string(options.seed) + ".json";
    spans.write_json(path);
    result.describe("spans", path);
  }

  // Failures count against attempts on every workload.
  const double fail_share =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  result.set("fail_share", fail_share, "ratio", Kind::kValue);

  std::cout << "descriptor {";
  for (std::size_t i = 0; i < result.descriptor.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << result.descriptor[i].first
              << "\": \"" << result.descriptor[i].second << "\"";
  }
  std::cout << "}\n";

  bool correct = result.check_failures.empty() && result.attempted > 0;
  std::string metrics;
  std::printf("%-34s %22s  %-8s %s\n", "metric", "value", "unit", "kind");
  for (const Spec& spec : options.trace ? per_layer() : end_to_end()) {
    const Metric* metric = result.find(spec.name);
    Metric shown{spec.name, 0.0, spec.unit, Kind::kValue};
    std::string kind = "n/a";
    if (metric != nullptr) {
      shown = *metric;
      kind = kind_name(metric->kind);
      if (metric->unit != spec.unit) {
        std::cerr << "perfbench: " << spec.name << " reported in "
                  << metric->unit << ", expected " << spec.unit << "\n";
        correct = false;
      }
    } else if (!options.trace) {
      std::cerr << "perfbench: end-to-end metric " << spec.name
                << " was not measured\n";
      correct = false;
    }
    if (!valid_metric_name(spec.name) || !std::isfinite(shown.value)) {
      std::cerr << "perfbench: invalid metric " << spec.name << "\n";
      correct = false;
    }
    std::printf("%-34s %22.10g  %-8s %s\n", spec.name, shown.value, spec.unit,
                kind.c_str());
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + spec.name +
               "\": {\"value\": " + json_number(shown.value) +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  for (const std::string& failure : result.check_failures) {
    std::cerr << "perfbench: output check failed: " << failure << "\n";
  }
  std::fflush(stdout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
