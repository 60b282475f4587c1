// The three training workloads: train_mix (single-process Trainer::fit on
// the five-source mix), train_zero (ZeRO-1 + activation checkpointing on
// small molecules, 4 ranks x 1 lane) and train_gpar (graph-parallel, 2 ranks
// on large slabs).
//
// Work is fixed per (workload, --seconds): a run trains a whole number of
// identical rounds (fresh model, same data, same seed), sized with frozen
// per-round cost estimates so that the reported percentiles always come from
// the same sample count. Repeating the round also checks that the final loss
// is bit-identical across repeats.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common.hpp"
#include "inputs.hpp"
#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/data/loader.hpp"
#include "sgnn/graph/partition.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/store/ddstore.hpp"
#include "sgnn/train/distributed.hpp"
#include "sgnn/train/trainer.hpp"
#include "sgnn/train/zero.hpp"
#include "sgnn/util/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace sgnn;

namespace {

/// Whole rounds that fit `seconds` at a frozen cost per round (at least 2,
/// so the repeat check always runs).
int rounds_for(double seconds, double round_seconds) {
  return std::max(2, static_cast<int>(seconds / round_seconds));
}

/// Runs `build` `repeats` times and returns the median wall time; `build`
/// constructs the set-up object in place, so the last one is kept.
template <typename Build>
double timed_setup(int repeats, Build build) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point begin = Clock::now();
    build();
    seconds.push_back(seconds_since(begin));
  }
  return median(seconds);
}

bool bit_equal(const std::vector<real>& a, const std::vector<real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

std::vector<const AtomicStructure*> structures_of(
    const std::vector<const MolecularGraph*>& graphs) {
  std::vector<const AtomicStructure*> out;
  for (const MolecularGraph* g : graphs) out.push_back(&g->structure);
  return out;
}

// ----------------------------------------------------------------- train_mix

// The dataset is generated to a byte budget, so its per-source graph counts
// vary a little with the seed. A seeded subset with a fixed count per source
// (ANI1x, QM7-X, OC2020, OC2022, MPTrj; the budget's own proportions) keeps
// the mix and the step count per round (so the percentile read) the same on
// every seed.
constexpr std::uint64_t kMixBytes = 2200000;
constexpr std::size_t kMixQuota[] = {4, 3, 28, 11, 2};  // 48 graphs, 6 batches
constexpr std::int64_t kMixEpochs = 2;
constexpr std::int64_t kMixBatch = 8;
constexpr std::int64_t kMixCheckpointEvery = 5;
// Frozen from a sizing run on a 4-core x86-64 (AVX2) machine: one round of
// 12 steps takes ~3.5 s.
constexpr double kMixRoundSeconds = 3.5;

TrainOptions mix_train_options(const std::string& ckpt_dir) {
  TrainOptions options;
  options.epochs = kMixEpochs;
  options.batch_size = kMixBatch;
  options.checkpoint.every_steps = kMixCheckpointEvery;
  options.checkpoint.directory = ckpt_dir;
  return options;
}

/// The snapshot Trainer writes, rebuilt from the traced loop's state so the
/// traced step carries the same checkpoint cost.
std::string mix_snapshot(const EGNNModel& model, Adam& optimizer,
                         const DataLoader& loader, std::int64_t step,
                         std::int64_t epoch) {
  ckpt::SnapshotBuilder builder;
  builder.add_bytes("meta.kind", "trainer");
  builder.add_i64("meta.step", step);
  builder.add_i64("meta.epoch", epoch);
  builder.add_bytes("model", model_payload_bytes(model));
  builder.add_i64("optim.timestep", optimizer.timestep());
  builder.add_f64("optim.lr", optimizer.learning_rate());
  const std::vector<real> m = flatten_parameters(optimizer.moment1());
  const std::vector<real> v = flatten_parameters(optimizer.moment2());
  builder.add_reals("optim.m", m.data(), m.size());
  builder.add_reals("optim.v", v.data(), v.size());
  const DataLoader::State state = loader.state();
  builder.add_bytes("loader.rng", ckpt::pod_bytes(state.rng));
  builder.add_u64s("loader.order", state.order);
  builder.add_u64("loader.cursor", state.cursor);
  return builder.payload();
}

/// loss_final: the multitask loss of the trained model on a held-out set
/// that is the same for every seed.
double held_out_loss(const EGNNModel& model, const GraphBatch& held_out) {
  return evaluate_batch(model, held_out, LossWeights{}).loss;
}

struct MixRound {
  double loss_final = 0;  ///< mean training loss of the last epoch
  double held_out = 0;
  double wall = 0;
  double atoms = 0;
  std::vector<double> steps;
  std::vector<real> parameters;
};

/// One round through the shipped trainer.
MixRound fit_round(const std::vector<const MolecularGraph*>& graphs,
                   std::uint64_t seed, const std::string& ckpt_dir,
                   const GraphBatch& held_out) {
  std::filesystem::remove_all(ckpt_dir);
  EGNNModel model(model_config());
  Trainer trainer(model, mix_train_options(ckpt_dir));
  DataLoader loader(graphs, kMixBatch, seed);
  StepClock clock(-1);
  trainer.set_telemetry(&clock);
  MixRound round;
  const Clock::time_point begin = Clock::now();
  clock.start();
  const auto history = trainer.fit(loader);
  round.wall = seconds_since(begin);
  round.loss_final = history.back().mean_train_loss;
  round.steps = clock.step_seconds();
  for (const auto& step : clock.records()) {
    round.atoms += static_cast<double>(step.batch_atoms);
  }
  round.parameters = flatten_parameters(model.parameters());
  round.held_out = held_out_loss(model, held_out);
  return round;
}

/// The same round as an explicit step loop with a span around every call
/// into a layer: DataLoader::next -> EGNNModel::forward -> multitask_loss ->
/// backward -> Adam::step (-> CheckpointManager::save). It follows
/// Trainer::fit step for step, so its parameters must come out bit-identical.
MixRound traced_round(const std::vector<const MolecularGraph*>& graphs,
                      std::uint64_t seed, const std::string& ckpt_dir,
                      SpanRecorder& spans, double& tape_nodes) {
  std::filesystem::remove_all(ckpt_dir);
  const TrainOptions options = mix_train_options(ckpt_dir);
  EGNNModel model(model_config());
  Adam optimizer(model.parameters(), options.adam);
  DataLoader loader(graphs, kMixBatch, seed);
  ckpt::CheckpointManager manager(ckpt_dir, options.checkpoint.keep_last);
  MixRound round;
  const Clock::time_point begin = Clock::now();
  double lr = options.adam.learning_rate;
  std::int64_t step = 0;
  double last_epoch_loss = 0;
  for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    optimizer.set_learning_rate(lr);
    loader.begin_epoch();
    double loss_sum = 0;
    std::int64_t batches = 0;
    while (loader.has_next()) {
      const Clock::time_point step_begin = Clock::now();
      const Scope step_span(&spans, "train.step", step);
      GraphBatch batch;
      {
        const Scope span(&spans, "data.next", step);
        batch = loader.next();
      }
      optimizer.zero_grad();
      Tensor total;
      {
        const ScopedTrainPhase phase(TrainPhase::kForward);
        EGNNModel::Output out;
        {
          const Scope span(&spans, "nn.forward", step);
          out = model.forward(batch, EGNNModel::ForwardOptions{});
        }
        const Scope span(&spans, "nn.loss", step);
        total = multitask_loss(out, batch, options.loss_weights).total;
        loss_sum += total.item();
      }
      tape_nodes += static_cast<double>(autograd::live_node_count());
      {
        const Scope span(&spans, "nn.backward", step);
        const ScopedTrainPhase phase(TrainPhase::kBackward);
        total.backward();
      }
      {
        const Scope span(&spans, "train.optim", step);
        const ScopedTrainPhase phase(TrainPhase::kOptimizer);
        optimizer.step();
      }
      ++step;
      ++batches;
      round.atoms += static_cast<double>(batch.num_nodes);
      if (step % options.checkpoint.every_steps == 0) {
        const Scope span(&spans, "ckpt.save", step);
        manager.save(static_cast<std::uint64_t>(step),
                     mix_snapshot(model, optimizer, loader, step, epoch));
      }
      round.steps.push_back(seconds_since(step_begin));
    }
    last_epoch_loss = loss_sum / static_cast<double>(batches);
    lr *= options.lr_decay;
  }
  round.wall = seconds_since(begin);
  round.loss_final = last_epoch_loss;
  round.parameters = flatten_parameters(model.parameters());
  return round;
}

void check_round_repeat(Result& result, const std::vector<double>& losses) {
  for (const double loss : losses) {
    result.check(std::isfinite(loss), "loss_final is not finite");
  }
  for (std::size_t i = 1; i < losses.size(); ++i) {
    result.check(std::memcmp(&losses[i], &losses[0], sizeof(double)) == 0,
                 "loss_final differs between repeats of one seed: " +
                     json_number(losses[0]) + " vs " + json_number(losses[i]));
  }
}

}  // namespace

Result run_train_mix(const Options& options, SpanRecorder* spans) {
  Result result;
  describe_machine(result, options);
  const int lanes = machine_threads();
  ThreadPool::instance().resize(lanes);
  result.describe("ranks", "1");
  result.describe("pool_lanes", std::to_string(lanes));

  std::optional<AggregatedDataset> dataset;
  const double generate_s = timed_setup(3, [&] {
    dataset.reset();
    dataset.emplace(mix_dataset(options.seed, kMixBytes));
  });
  std::vector<std::size_t> order(dataset->graphs().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng pick(options.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[pick.uniform_index(i)]);
  }
  std::vector<std::size_t> subset;
  std::size_t taken[std::size(kMixQuota)] = {};
  for (const std::size_t i : order) {
    const auto source = static_cast<std::size_t>(dataset->source_of(i));
    if (taken[source] < kMixQuota[source]) {
      ++taken[source];
      subset.push_back(i);
    }
  }
  for (std::size_t source = 0; source < std::size(kMixQuota); ++source) {
    result.check(taken[source] == kMixQuota[source],
                 "train_mix dataset has too few graphs of source " +
                     std::to_string(source));
  }
  const std::vector<const MolecularGraph*> graphs = dataset->view(subset);
  std::optional<EGNNModel> probe_model;
  const double model_s = timed_setup(3, [&] {
    probe_model.reset();
    probe_model.emplace(model_config());
  });
  result.set("setup_s", generate_s + model_s, "s");
  result.describe("graphs", std::to_string(graphs.size()));
  std::vector<MolecularGraph> used;
  for (const MolecularGraph* g : graphs) used.push_back(*g);
  result.describe("input_digest", std::to_string(digest(used)));

  const std::string ckpt_dir = options.out_dir + "/ckpt_train_mix";
  const int rounds = rounds_for(options.seconds, kMixRoundSeconds);
  const GraphBatch held_out = GraphBatch::from_graphs(held_out_mix());
  std::vector<double> losses;
  std::vector<double> held_out_losses;
  std::vector<double> steps;
  double atoms = 0;
  double wall = 0;
  std::int64_t peak_bytes = 0;

  if (spans == nullptr) {
    for (int r = 0; r < rounds; ++r) {
      MemoryTracker::instance().reset_peak();
      const MixRound round = fit_round(graphs, options.seed, ckpt_dir, held_out);
      peak_bytes = std::max(peak_bytes, MemoryTracker::instance().peak_total());
      losses.push_back(round.loss_final);
      held_out_losses.push_back(round.held_out);
      steps.insert(steps.end(), round.steps.begin(), round.steps.end());
      atoms += round.atoms;
      wall += round.wall;
    }
    check_round_repeat(result, losses);
    check_round_repeat(result, held_out_losses);
    result.attempted = static_cast<std::int64_t>(steps.size());
    result.set("atoms_per_s", atoms / wall, "1/s");
    set_step_metrics(result, steps);
    result.set("loss_final", held_out_losses.front(), "loss", Kind::kValue);
    result.set("peak_mib", static_cast<double>(peak_bytes) / kMiB, "MiB",
               Kind::kValue);
    std::filesystem::remove_all(ckpt_dir);
    return result;
  }

  // Traced run: alternate the shipped trainer (untraced reference) with the
  // traced loop; each pair must end with bit-identical parameters.
  result.set("data.generate_s", generate_s, "s");
  auto& registry = obs::MetricsRegistry::instance();
  std::vector<double> untraced_steps;
  std::vector<double> traced_steps;
  double tape_nodes = 0;
  double ckpt_bytes = 0;
  double ckpt_writes = 0;
  obs::prof::Report report;
  MemBreakdown peak;
  const int pairs = std::max(1, rounds / 2);
  for (int p = 0; p < pairs; ++p) {
    const MixRound reference =
        fit_round(graphs, options.seed, ckpt_dir, held_out);
    untraced_steps.insert(untraced_steps.end(), reference.steps.begin(),
                          reference.steps.end());
    registry.reset();
    obs::prof::reset();
    obs::prof::enable();
    MemoryTracker::instance().reset_peak();
    const MixRound traced =
        traced_round(graphs, options.seed, ckpt_dir, *spans, tape_nodes);
    obs::prof::disable();
    report = obs::prof::report(/*with_calibration=*/false);
    peak = MemoryTracker::instance().peak();
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    ckpt_bytes += static_cast<double>(snapshot.counters.at("ckpt.bytes"));
    ckpt_writes += static_cast<double>(snapshot.counters.at("ckpt.writes"));
    traced_steps.insert(traced_steps.end(), traced.steps.begin(),
                        traced.steps.end());
    losses.push_back(reference.loss_final);
    losses.push_back(traced.loss_final);
    result.check(bit_equal(reference.parameters, traced.parameters),
                 "traced step loop parameters differ from Trainer::fit");
  }
  check_round_repeat(result, losses);
  std::filesystem::remove_all(ckpt_dir);
  result.attempted = static_cast<std::int64_t>(traced_steps.size());

  // Per-layer numbers describe the last traced round (the profiler report
  // is reset per round); spans cover every traced round.
  const double last_steps = static_cast<double>(traced_steps.size()) / pairs;
  double last_wall = 0;
  for (std::size_t i = traced_steps.size() - static_cast<std::size_t>(last_steps);
       i < traced_steps.size(); ++i) {
    last_wall += traced_steps[i];
  }
  set_tensor_metrics(result, report, last_steps, last_wall, 1);
  set_peak_breakdown(result, peak);
  const double all_steps = static_cast<double>(traced_steps.size());
  result.set("tensor.tape_nodes_per_step", tape_nodes / all_steps, "count",
             Kind::kExact);
  result.set("data.next_s", spans->total_seconds("data.next") / all_steps, "s");
  result.set("nn.forward_s", spans->total_seconds("nn.forward") / all_steps, "s");
  result.set("nn.backward_s", spans->total_seconds("nn.backward") / all_steps,
             "s");
  result.set("nn.loss_s", spans->total_seconds("nn.loss") / all_steps, "s");
  result.set("train.optim_s", spans->total_seconds("train.optim") / all_steps,
             "s");
  const double saves = static_cast<double>(spans->count("ckpt.save"));
  result.set("ckpt.save_s", spans->total_seconds("ckpt.save") / saves, "s");
  result.set("ckpt.bytes_per_save", ckpt_bytes / ckpt_writes, "B",
             Kind::kExact);
  neighbor_probe(result, structures_of(graphs), spans);
  set_self_times(result, *spans, all_steps);
  result.set("trace.overhead_s", median(traced_steps) - median(untraced_steps),
             "s");
  return result;
}

// --------------------------------------------------- distributed workloads

namespace {

struct DistSpec {
  int ranks = 4;
  int lanes = 1;  ///< pool lanes (caller + workers) shared by the ranks
  DistStrategy strategy = DistStrategy::kDDP;
  bool activation_checkpointing = false;
  bool graph_parallel = false;
  std::size_t bucket_bytes = GradBucketer::kDefaultBucketBytes;
  std::int64_t batch = 8;  ///< per rank; the global batch under gpar
  std::int64_t steps_per_round = 10;
  double round_seconds = 2.0;  ///< frozen cost estimate
};

struct DistRound {
  DistTrainReport report;
  double held_out = 0;
  double wall = 0;
  double atoms = 0;
  double divergence = 0;
  std::vector<double> steps;
  std::vector<obs::StepTelemetry> records;
};

DistTrainOptions dist_options(const DistSpec& spec, int ranks) {
  DistTrainOptions options;
  options.num_ranks = ranks;
  options.strategy = spec.strategy;
  options.activation_checkpointing = spec.activation_checkpointing;
  options.graph_parallel = spec.graph_parallel;
  options.bucket_bytes = spec.bucket_bytes;
  options.per_rank_batch_size = spec.batch;
  options.epochs = 1;
  return options;
}

DistRound dist_round(const DistSpec& spec, int ranks, const DDStore& store,
                     const GraphBatch& held_out) {
  StepClock clock(0);
  DistTrainOptions options = dist_options(spec, ranks);
  options.telemetry = &clock;
  DistRound round;
  const Clock::time_point begin = Clock::now();
  clock.start();
  DistributedTrainer trainer(model_config(), options);
  round.report = trainer.train(store);
  round.wall = seconds_since(begin);
  round.divergence = trainer.replica_divergence();
  round.held_out = held_out_loss(trainer.model(), held_out);
  round.steps = clock.step_seconds();
  round.records = clock.records();
  for (const auto& step : round.records) {
    // Graph-parallel ranks share one batch; count it once.
    if (!spec.graph_parallel || step.rank == 0) {
      round.atoms += static_cast<double>(step.batch_atoms);
    }
  }
  return round;
}

/// The first `count` graphs.
std::vector<MolecularGraph> head(const std::vector<MolecularGraph>& graphs,
                                 std::int64_t count) {
  return {graphs.begin(), graphs.begin() + count};
}

Result run_dist(const Options& options, SpanRecorder* spans,
                const DistSpec& spec,
                std::vector<MolecularGraph> (*make_graphs)(std::uint64_t,
                                                           std::int64_t)) {
  Result result;
  describe_machine(result, options);
  result.describe("ranks", std::to_string(spec.ranks));
  result.describe("pool_lanes", std::to_string(spec.lanes));
  const int threads = machine_threads();

  const std::int64_t global_batch =
      spec.graph_parallel ? spec.batch : spec.batch * spec.ranks;
  const std::int64_t count = global_batch * spec.steps_per_round;
  std::optional<std::vector<MolecularGraph>> graphs;
  const double generate_s = timed_setup(3, [&] {
    graphs.reset();
    graphs.emplace(make_graphs(options.seed, count));
  });
  std::optional<DDStore> store;
  const double store_s = timed_setup(3, [&] {
    store.reset();
    store.emplace(spec.ranks);
    store->insert(*graphs);
  });
  std::optional<DistributedTrainer> probe_trainer;
  const double trainer_s = timed_setup(3, [&] {
    probe_trainer.reset();
    probe_trainer.emplace(model_config(), dist_options(spec, spec.ranks));
  });
  probe_trainer.reset();
  result.set("setup_s", generate_s + store_s + trainer_s, "s");
  result.describe("graphs", std::to_string(graphs->size()));
  result.describe("input_digest", std::to_string(digest(*graphs)));

  // loss_final is read on a held-out set generated the same way from a
  // seed that does not change with --seed.
  const GraphBatch held_out =
      GraphBatch::from_graphs(make_graphs(kHeldOutSeed, spec.graph_parallel ? 8 : 32));

  // Reference for train_gpar: the same global batches on one rank with the
  // same thread total. Its loss must match the partitioned run exactly.
  std::optional<DistRound> single;
  std::optional<DDStore> single_store;
  if (spec.graph_parallel) {
    single_store.emplace(1);
    single_store->insert(*graphs);
    ThreadPool::instance().resize(threads);
    single.emplace(dist_round(spec, 1, *single_store, held_out));
  }
  ThreadPool::instance().resize(spec.lanes);

  const int rounds = rounds_for(options.seconds * (spec.graph_parallel ? 0.85 : 1.0),
                                spec.round_seconds);
  const int traced_rounds = spans != nullptr ? std::max(1, rounds / 2) : 0;
  std::vector<double> losses;
  std::vector<double> held_out_losses;
  std::vector<double> steps;
  std::vector<double> untraced_steps;
  double atoms = 0;
  double wall = 0;
  std::int64_t peak_bytes = 0;
  DistRound last;
  obs::prof::Report report;
  for (int r = 0; r < rounds; ++r) {
    const bool traced = r >= rounds - traced_rounds;
    store->reset_stats();
    if (traced) {
      obs::prof::reset();
      obs::prof::enable();
    }
    DistRound round;
    {
      const Scope span(traced ? spans : nullptr, "train.round", r);
      round = dist_round(spec, spec.ranks, *store, held_out);
    }
    if (traced) {
      obs::prof::disable();
      report = obs::prof::report(/*with_calibration=*/false);
    }
    result.check(round.divergence == 0.0,
                 "replica_divergence() = " + json_number(round.divergence));
    if (single) {
      result.check(std::memcmp(&round.report.final_train_loss,
                               &single->report.final_train_loss,
                               sizeof(double)) == 0,
                   "graph-parallel loss " +
                       json_number(round.report.final_train_loss) +
                       " differs from the 1-rank run's " +
                       json_number(single->report.final_train_loss));
    }
    losses.push_back(round.report.final_train_loss);
    held_out_losses.push_back(round.held_out);
    peak_bytes = std::max(peak_bytes, round.report.peak_memory.total());
    std::vector<double>& bucket = traced ? steps : untraced_steps;
    bucket.insert(bucket.end(), round.steps.begin(), round.steps.end());
    if (!traced) {
      atoms += round.atoms;
      wall += round.wall;
    }
    last = std::move(round);
  }
  check_round_repeat(result, losses);
  check_round_repeat(result, held_out_losses);
  if (spans == nullptr) steps = untraced_steps;
  result.attempted = static_cast<std::int64_t>(steps.size());

  if (spans == nullptr) {
    result.set("atoms_per_s", atoms / wall, "1/s");
    set_step_metrics(result, steps);
    result.set("loss_final", held_out_losses.front(), "loss", Kind::kValue);
    result.set("peak_mib", static_cast<double>(peak_bytes) / kMiB, "MiB",
               Kind::kValue);
    return result;
  }

  // Per-layer numbers of the last traced round, from the trainer's own
  // counters: DistTrainReport, the TelemetrySink records and obs::prof.
  const DistTrainReport& rep = last.report;
  const double n = static_cast<double>(rep.steps);
  const double R = spec.ranks;
  double last_wall = 0;
  for (const double s : last.steps) last_wall += s;
  result.set("data.generate_s", generate_s, "s");
  set_tensor_metrics(result, report, n, last_wall, spec.ranks);
  set_peak_breakdown(result, rep.peak_memory);
  double forward = 0;
  double backward = 0;
  double optimizer = 0;
  for (const obs::prof::TreeRow& row : report.tree) {
    if (row.path == "train_step;forward") forward = row.inclusive_seconds;
    if (row.path == "train_step;backward") backward = row.inclusive_seconds;
    if (row.path == "train_step;optimizer") optimizer = row.inclusive_seconds;
  }
  result.set("nn.forward_s", forward / R / n, "s");
  result.set("nn.backward_s", backward / R / n, "s");
  result.set("train.optim_s", optimizer / R / n, "s");
  result.set("train.dist_compute_s_per_step", rep.compute_seconds / n, "s");
  std::vector<double> per_rank(static_cast<std::size_t>(spec.ranks), 0.0);
  for (const auto& step : last.records) {
    per_rank[static_cast<std::size_t>(step.rank)] += step.step_seconds;
  }
  result.set("train.rank_skew",
             *std::max_element(per_rank.begin(), per_rank.end()) /
                 median(per_rank),
             "ratio");
  result.set("store.remote_fetches_per_step",
             static_cast<double>(rep.data_traffic.remote_fetches) / n, "count",
             Kind::kExact);
  result.set("store.remote_bytes_per_step",
             static_cast<double>(rep.data_traffic.remote_bytes) / n, "B",
             Kind::kExact);
  result.set("comm.bytes_per_step",
             static_cast<double>(rep.collective_traffic.total_bytes()) / n, "B",
             Kind::kExact);
  result.set("comm.calls_per_step",
             static_cast<double>(rep.collective_traffic.collective_calls) / n,
             "count", Kind::kExact);
  result.set("comm.buckets_per_step", static_cast<double>(rep.comm_buckets) / n,
             "count", Kind::kExact);
  result.set("comm.exposed_modeled_s", rep.comm_exposed_seconds / n, "s",
             Kind::kModeled);
  result.set("train.halo_bytes_per_step", static_cast<double>(rep.halo_bytes) / n,
             "B", Kind::kExact);
  result.set("train.halo_exchanges_per_step",
             static_cast<double>(rep.halo_exchanges) / n, "count", Kind::kExact);
  result.set("train.halo_exposed_modeled_s", rep.halo_exposed_seconds / n, "s",
             Kind::kModeled);

  std::vector<const MolecularGraph*> views;
  for (const MolecularGraph& g : *graphs) views.push_back(&g);
  neighbor_probe(result, structures_of(views), spans);
  if (spec.graph_parallel) {
    // graph.partition_s: GraphPartition::build on each global batch.
    double partition_s = 0;
    for (std::int64_t s = 0; s < spec.steps_per_round; ++s) {
      const auto first = views.begin() + s * global_batch;
      const GraphBatch batch = GraphBatch::from_graphs(
          std::vector<const MolecularGraph*>(first, first + global_batch));
      const Scope span(spans, "graph.partition", s);
      const Clock::time_point begin = Clock::now();
      const gpar::GraphPartition partition =
          gpar::GraphPartition::build(batch, spec.ranks);
      partition_s += seconds_since(begin);
    }
    result.set("graph.partition_s",
               partition_s / static_cast<double>(spec.steps_per_round), "s");
    // train.gpar_eff: throughput against the 1-rank graph-parallel run.
    result.set("train.gpar_eff", (atoms / wall) / (single->atoms / single->wall),
               "ratio");
  } else {
    // train.weak_scaling_eff: per-rank throughput against one rank on the
    // same per-rank batch and lanes.
    DDStore one(1);
    one.insert(head(*graphs, spec.batch * spec.steps_per_round));
    const DistRound alone = dist_round(spec, 1, one, held_out);
    result.set("train.weak_scaling_eff",
               (atoms / wall / R) / (alone.atoms / alone.wall), "ratio");
  }
  set_self_times(result, *spans, n);
  result.set("trace.overhead_s", median(steps) - median(untraced_steps), "s");
  return result;
}

}  // namespace

Result run_train_zero(const Options& options, SpanRecorder* spans) {
  DistSpec spec;
  spec.ranks = machine_threads();
  spec.lanes = 1;
  spec.strategy = DistStrategy::kZeRO1;
  spec.activation_checkpointing = true;
  // Below the ~0.9 MB gradient, so several buckets overlap backward.
  spec.bucket_bytes = 256 * 1024;
  spec.batch = 8;
  spec.steps_per_round = 10;
  // Frozen from sizing on 4 cores: ~0.19 s per step.
  spec.round_seconds = 2.0;
  return run_dist(options, spans, spec, &molecule_samples);
}

Result run_train_gpar(const Options& options, SpanRecorder* spans) {
  DistSpec spec;
  spec.ranks = 2;
  // Two rank threads plus shared pool workers: nproc busy threads in all.
  spec.lanes = std::max(1, machine_threads() - spec.ranks + 1);
  spec.graph_parallel = true;
  spec.batch = 8;
  spec.steps_per_round = 2;
  // Frozen from sizing on 4 cores: ~0.52 s per step.
  spec.round_seconds = 1.1;
  return run_dist(options, spans, spec, &slab_samples);
}

}  // namespace perfbench
