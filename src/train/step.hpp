#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/comm/communicator.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/train/loss_scaler.hpp"
#include "sgnn/train/optim.hpp"
#include "sgnn/train/schedule.hpp"
#include "sgnn/util/timer.hpp"

// The training-step core shared by Trainer and the DistributedTrainer rank
// worker. Private to src/train.

namespace sgnn {

struct DistTrainOptions;

/// One rank's gradient synchronization and optimizer, the only place a
/// run's update strategy is chosen. Three cases:
/// * local: plain Adam on this rank's own gradients, clipped first when
///   max_grad_norm > 0 — the single-process Trainer, and graph-parallel
///   ranks, whose gradients the halo exchange already replicated exactly;
/// * DDP: bucketed all-reduce + replicated Adam (DDPAdam);
/// * ZeRO-1: reduce-scatter + sharded Adam + all-gather (ZeroAdam).
class GradSync {
 public:
  GradSync() = default;
  GradSync(const GradSync&) = delete;
  GradSync& operator=(const GradSync&) = delete;
  virtual ~GradSync() = default;

  static std::unique_ptr<GradSync> local(std::vector<Tensor> parameters,
                                         const Adam::Options& adam,
                                         double max_grad_norm);
  /// Chosen from (graph_parallel, strategy).
  static std::unique_ptr<GradSync> for_rank(Communicator& comm, int rank,
                                            std::vector<Tensor> parameters,
                                            const DistTrainOptions& options);

  virtual void zero_grad() = 0;
  /// Runs `loss.backward()` with the bucketer (if any) armed, so each
  /// bucket's collective is posted as soon as its last gradient lands.
  virtual void backward(Tensor& loss) = 0;
  /// Applies one update; collective for DDP/ZeRO. Returns the L2 norm of
  /// this rank's gradient before any sync or clip when clipping locally or
  /// when `want_norm`, else 0.
  virtual double step(bool want_norm) = 0;
  virtual void set_learning_rate(double lr) = 0;
  virtual double learning_rate() const = 0;
  /// Source of the overlap events that price the step's communication;
  /// null when the case posts no bucket collectives.
  virtual GradBucketer* bucketer() = 0;
  /// Fault injection inside step(), between posting and draining the
  /// buckets; ignored by the local case, which posts none.
  virtual void set_pre_drain_hook(std::function<void()> hook) = 0;

  /// Appends the optimizer sections for the run whose rank r holds
  /// `ranks[r]`: optim.timestep, optim.lr, and the moments as one
  /// optim.m / optim.v pair, or under ZeRO-1 each rank's shard as
  /// optim.m.<r> / optim.v.<r>.
  static void save(ckpt::SnapshotBuilder& builder,
                   std::span<const std::unique_ptr<GradSync>> ranks);
  void load(const ckpt::SnapshotView& view, int rank);

 protected:
  virtual std::int64_t timestep() const = 0;
  virtual void set_timestep(std::int64_t timestep) = 0;
  /// Handles onto the Adam moments in parameter order (one flat tensor for
  /// DDP/ZeRO); writing through them writes the state.
  virtual std::vector<Tensor> moment1() = 0;
  virtual std::vector<Tensor> moment2() = 0;
  virtual bool sharded() const = 0;
};

/// One training step: forward → loss → backward → sync/optimizer. Construct
/// it at the top of the step, before the caller fetches its batch, and keep
/// it to the end of the iteration: it starts the step clock and opens the
/// "train_step" profile region the caller's fetch, comm accounting and
/// checkpoint nest under.
class TrainStep {
 public:
  struct Config {
    EGNNModel::ForwardOptions forward;
    LossWeights loss_weights;
    const LrSchedule* schedule = nullptr;  ///< overrides the LR when set
    LossScaler* loss_scaler = nullptr;     ///< null: no loss scaling
    bool want_grad_norm = false;           ///< a telemetry sink is attached
  };

  /// `kernel_totals` measures the step's kernel-profile delta; the totals
  /// span every thread, so a distributed run measures on one rank.
  explicit TrainStep(bool kernel_totals);

  /// Runs step `step`, each phase under its TraceSpan + ProfRegion +
  /// ScopedTrainPhase. Returns the telemetry with the fields both trainers
  /// share filled in.
  obs::StepTelemetry run(EGNNModel& model, GradSync& sync,
                         const GraphBatch& batch, std::int64_t step,
                         const Config& config);

 private:
  const WallTimer timer_;
  std::optional<obs::prof::Totals> prof_before_;
  const obs::prof::ProfRegion region_;
};

}  // namespace sgnn
