#include "step.hpp"

#include <string>
#include <type_traits>

#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/distributed.hpp"
#include "sgnn/train/zero.hpp"
#include "sgnn/util/logging.hpp"

namespace sgnn {

namespace {

std::vector<Tensor> as_list(std::vector<Tensor>& moments) { return moments; }
std::vector<Tensor> as_list(Tensor& flat) { return {flat}; }

/// The three cases over their optimizers: Adam (local), DDPAdam, ZeroAdam.
/// `clip` > 0 clips this rank's own gradient before the update (the local
/// case); DDPAdam and ZeroAdam clip the rank-averaged gradient themselves.
template <typename Optimizer>
class OptimizerSync final : public GradSync {
  static constexpr bool kLocal = std::is_same_v<Optimizer, Adam>;

 public:
  OptimizerSync(std::unique_ptr<Optimizer> optimizer,
                std::vector<Tensor> parameters, int rank, double clip)
      : optimizer_(std::move(optimizer)),
        parameters_(std::move(parameters)),
        rank_(rank),
        clip_(clip) {}

  void zero_grad() override { optimizer_->zero_grad(); }
  void backward(Tensor& loss) override {
    GradBucketer* const armed = bucketer();
    if (armed == nullptr) {
      loss.backward();
      return;
    }
    armed->begin_step(rank_);
    const autograd::ScopedLeafGradHook hook(
        [armed](const void* leaf) { armed->on_leaf_grad(leaf); });
    loss.backward();
  }
  double step(bool want_norm) override {
    double norm = 0;
    if (clip_ > 0) {
      norm = clip_grad_norm(parameters_, clip_);
    } else if (want_norm) {
      norm = grad_l2_norm(parameters_);
    }
    if constexpr (kLocal) {
      optimizer_->step();
    } else {
      optimizer_->step(rank_);
    }
    return norm;
  }
  void set_learning_rate(double lr) override {
    optimizer_->set_learning_rate(lr);
  }
  double learning_rate() const override {
    return optimizer_->learning_rate();
  }
  GradBucketer* bucketer() override {
    if constexpr (kLocal) {
      return nullptr;
    } else {
      return optimizer_->bucketer();
    }
  }
  void set_pre_drain_hook(std::function<void()> hook) override {
    if constexpr (!kLocal) optimizer_->set_pre_drain_hook(std::move(hook));
  }

 protected:
  std::int64_t timestep() const override { return optimizer_->timestep(); }
  void set_timestep(std::int64_t timestep) override {
    optimizer_->set_timestep(timestep);
  }
  std::vector<Tensor> moment1() override {
    return as_list(optimizer_->moment1());
  }
  std::vector<Tensor> moment2() override {
    return as_list(optimizer_->moment2());
  }
  bool sharded() const override { return std::is_same_v<Optimizer, ZeroAdam>; }

 private:
  std::unique_ptr<Optimizer> optimizer_;
  std::vector<Tensor> parameters_;
  int rank_;
  double clip_;
};

}  // namespace

std::unique_ptr<GradSync> GradSync::local(std::vector<Tensor> parameters,
                                          const Adam::Options& adam,
                                          double max_grad_norm) {
  return std::make_unique<OptimizerSync<Adam>>(
      std::make_unique<Adam>(parameters, adam), std::move(parameters),
      /*rank=*/0, max_grad_norm);
}

std::unique_ptr<GradSync> GradSync::for_rank(Communicator& comm, int rank,
                                             std::vector<Tensor> parameters,
                                             const DistTrainOptions& options) {
  if (options.graph_parallel) {
    // The halo exchange leaves every rank holding the exact replicated
    // gradient, so a plain local update keeps the replicas bit-identical.
    // A DDP all-reduce-then-average of R identical gradients is NOT a
    // bitwise no-op (g + g + g rounds), so averaging would break parity.
    return local(std::move(parameters), options.adam, options.max_grad_norm);
  }
  if (options.strategy == DistStrategy::kDDP) {
    auto ddp = std::make_unique<DDPAdam>(comm, parameters, options.adam,
                                         options.bucket_bytes);
    ddp->set_max_grad_norm(options.max_grad_norm);
    return std::make_unique<OptimizerSync<DDPAdam>>(
        std::move(ddp), std::move(parameters), rank, /*clip=*/0.0);
  }
  auto zero = std::make_unique<ZeroAdam>(comm, parameters, options.adam,
                                         /*stage=*/1, options.bucket_bytes);
  zero->set_max_grad_norm(options.max_grad_norm);
  return std::make_unique<OptimizerSync<ZeroAdam>>(
      std::move(zero), std::move(parameters), rank, /*clip=*/0.0);
}

void GradSync::save(ckpt::SnapshotBuilder& builder,
                    std::span<const std::unique_ptr<GradSync>> ranks) {
  GradSync& lead = *ranks.front();
  builder.add_i64("optim.timestep", lead.timestep());
  builder.add_f64("optim.lr", lead.learning_rate());
  // Replicated state: rank 0's moments stand for every rank (the sync
  // invariant keeps them bitwise equal). Sharded: each rank's own shard.
  const std::size_t writers = lead.sharded() ? ranks.size() : 1;
  for (std::size_t r = 0; r < writers; ++r) {
    const std::string suffix = lead.sharded() ? "." + std::to_string(r) : "";
    const std::vector<real> m = flatten_parameters(ranks[r]->moment1());
    const std::vector<real> v = flatten_parameters(ranks[r]->moment2());
    builder.add_reals("optim.m" + suffix, m.data(), m.size());
    builder.add_reals("optim.v" + suffix, v.data(), v.size());
  }
}

void GradSync::load(const ckpt::SnapshotView& view, int rank) {
  const std::string suffix = sharded() ? "." + std::to_string(rank) : "";
  std::vector<Tensor> m = moment1();
  std::vector<Tensor> v = moment2();
  unflatten_into_parameters(view.reals("optim.m" + suffix), m);
  unflatten_into_parameters(view.reals("optim.v" + suffix), v);
  set_timestep(view.i64("optim.timestep"));
  set_learning_rate(view.f64("optim.lr"));
}

TrainStep::TrainStep(bool kernel_totals) : region_("train_step") {
  if (kernel_totals) prof_before_ = obs::prof::totals();
}

obs::StepTelemetry TrainStep::run(EGNNModel& model, GradSync& sync,
                                  const GraphBatch& batch, std::int64_t step,
                                  const Config& config) {
  LossScaler* const scaler = config.loss_scaler;
  obs::StepTelemetry telemetry;
  telemetry.step = step;
  sync.zero_grad();

  Tensor total;
  {
    const obs::TraceSpan span("forward", "train");
    const obs::prof::ProfRegion region("forward");
    const ScopedTrainPhase phase(TrainPhase::kForward);
    const auto out = model.forward(batch, config.forward);
    const LossTerms terms = multitask_loss(out, batch, config.loss_weights);
    // The reported loss stays unscaled; only the backward graph sees the
    // loss-scale factor.
    telemetry.loss = terms.total.item();
    total = scaler != nullptr && scaler->enabled()
                ? scale(terms.total, static_cast<real>(scaler->scale()))
                : terms.total;
  }
  {
    const obs::TraceSpan span("backward", "train");
    const obs::prof::ProfRegion region("backward");
    const ScopedTrainPhase phase(TrainPhase::kBackward);
    sync.backward(total);
  }
  {
    const obs::TraceSpan span("optimizer", "train");
    const obs::prof::ProfRegion region("optimizer");
    const ScopedTrainPhase phase(TrainPhase::kOptimizer);
    if (config.schedule != nullptr) {
      // Pure function of the global step, so replicas agree for free.
      sync.set_learning_rate(config.schedule->at_step(step));
    }
    const bool overflowed =
        scaler != nullptr && scaler->enabled() &&
        LossScaler::grads_overflowed(model.parameters());
    if (scaler == nullptr || scaler->update(overflowed)) {
      if (scaler != nullptr) scaler->unscale(model.parameters());
      telemetry.grad_norm = sync.step(config.want_grad_norm);
    } else {
      // Overflow: skip the parameter update, keep the step count moving
      // (AMP semantics) so schedules and checkpoints stay aligned.
      SGNN_LOG_DEBUG << "step " << step
                     << ": non-finite gradients, optimizer step skipped";
    }
  }

  // The EFFECTIVE learning rate this step used (schedule- and
  // resume-aware), not the base configuration value.
  telemetry.learning_rate = sync.learning_rate();
  telemetry.batch_graphs = batch.num_graphs;
  telemetry.batch_atoms = batch.num_nodes;
  telemetry.batch_edges = batch.num_edges;
  telemetry.step_seconds = timer_.seconds();
  if (telemetry.step_seconds > 0) {
    telemetry.atoms_per_sec =
        static_cast<double>(telemetry.batch_atoms) / telemetry.step_seconds;
    telemetry.graphs_per_sec =
        static_cast<double>(telemetry.batch_graphs) / telemetry.step_seconds;
  }
  telemetry.live_bytes = MemoryTracker::instance().live().total();
  telemetry.peak_bytes = MemoryTracker::instance().peak_total();
  if (prof_before_) {
    const obs::prof::Totals prof_after = obs::prof::totals();
    telemetry.kernel_seconds =
        prof_after.kernel_seconds - prof_before_->kernel_seconds;
    telemetry.kernel_flops = prof_after.flops - prof_before_->flops;
    telemetry.kernel_bytes = prof_after.bytes - prof_before_->bytes;
  }
  telemetry.kernel_backend = kernels::backend_name(kernels::active_backend());
  telemetry.compute_dtype =
      kernels::dtype_name(kernels::active_compute_dtype());
  return telemetry;
}

}  // namespace sgnn
