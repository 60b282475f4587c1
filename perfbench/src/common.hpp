#pragma once

// Helpers shared by the workload files: the run descriptor, step clocks,
// and the conversion of the library's own counters into metrics.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sgnn/graph/structure.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/tensor/memory_tracker.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
inline constexpr double kMiB = 1024.0 * 1024.0;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// The model every workload runs: EGNN width 64 x depth 3 (the "100M*"
/// grid point).
sgnn::ModelConfig model_config();

/// graph.neighbor_s (mean MolecularGraph::from_structure time per structure)
/// and graph.edges_per_atom over `structures`, with a span per build.
void neighbor_probe(Result& result,
                    const std::vector<const sgnn::AtomicStructure*>& structures,
                    SpanRecorder* spans);

/// Pool lanes available to the process (the ranks' or workers' own threads
/// count against it).
int machine_threads();

/// Records nproc, ISA, kernel backend, compute dtype, build type and seed.
void describe_machine(Result& result, const Options& options);

/// Telemetry receiver that timestamps each step of one rank (-1 for the
/// single-process trainer, 0 for rank 0 of a distributed run) and keeps
/// every record. Step wall time is the gap between consecutive steps, so it
/// covers the whole loop body: fetch, forward, backward, sync, optimizer,
/// checkpoint and telemetry. The first step of a round has no predecessor
/// and takes the trainer's own step_seconds.
class StepClock final : public sgnn::obs::TelemetrySink {
 public:
  explicit StepClock(int timed_rank) : timed_rank_(timed_rank) {}
  /// Starts a round; the next step is the round's first.
  void start();
  void on_step(const sgnn::obs::StepTelemetry& step) override;

  std::vector<double> step_seconds() const;
  std::vector<sgnn::obs::StepTelemetry> records() const;

 private:
  int timed_rank_;
  mutable std::mutex mutex_;  ///< guards the members below
  Clock::time_point last_;
  bool first_ = true;
  std::vector<double> step_seconds_;
  std::vector<sgnn::obs::StepTelemetry> records_;
};

/// Sets step_p50_s and step_p95_s from per-step wall times.
void set_step_metrics(Result& result, const std::vector<double>& steps);

/// Per-step kernel metrics from a profiler report covering `steps` steps of
/// `step_wall` total seconds run by `ranks` concurrent rank threads.
void set_tensor_metrics(Result& result, const sgnn::obs::prof::Report& report,
                        double steps, double step_wall, int ranks);

/// tensor.peak_activation_mib / tensor.peak_optimizer_mib from the tracker's
/// breakdown at its recorded peak.
void set_peak_breakdown(Result& result, const sgnn::MemBreakdown& peak);

/// self.<layer>_s per step from the traced spans.
void set_self_times(Result& result, const SpanRecorder& spans, double steps);

}  // namespace perfbench
