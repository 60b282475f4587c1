#include "sgnn/serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/data/loader.hpp"
#include "sgnn/data/sources.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/graph/graph.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/serve/cache.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/trainer.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn::serve {
namespace {

ModelConfig serve_config() {
  ModelConfig config;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.seed = 7;
  return config;
}

AtomicStructure random_cluster(std::int64_t atoms, double box, Rng& rng) {
  AtomicStructure s;
  const int palette[] = {elements::kH, elements::kC, elements::kN,
                         elements::kO, elements::kCu};
  for (std::int64_t i = 0; i < atoms; ++i) {
    s.species.push_back(palette[rng.uniform_index(5)]);
    s.positions.push_back(
        {rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)});
  }
  return s;
}

AtomicStructure translated(AtomicStructure s, const Vec3& shift) {
  for (auto& p : s.positions) p = p + shift;
  return s;
}

AtomicStructure permuted(const AtomicStructure& s,
                         const std::vector<std::size_t>& order) {
  AtomicStructure out;
  for (const std::size_t i : order) {
    out.species.push_back(s.species[i]);
    out.positions.push_back(s.positions[i]);
  }
  out.cell = s.cell;
  out.periodic = s.periodic;
  return out;
}

/// Reference single-structure inference straight through the model, on the
/// same forward/backward path the server batches over.
std::pair<double, std::vector<Vec3>> reference_predict(
    const EGNNModel& model, const AtomicStructure& structure,
    bool want_forces) {
  const MolecularGraph graph =
      MolecularGraph::from_structure(structure, model.config().cutoff);
  GraphBatch batch =
      GraphBatch::from_graphs(std::vector<const MolecularGraph*>{&graph});
  std::vector<Vec3> forces;
  double energy = 0.0;
  if (want_forces) {
    batch.positions.set_requires_grad(true);
    const Tensor e = model.forward(batch).energy;
    energy = e.at(0, 0);
    sum(e).backward();
    const Tensor grad = batch.positions.grad();
    for (std::int64_t a = 0; a < structure.num_atoms(); ++a) {
      forces.push_back({-grad.data()[a * 3 + 0], -grad.data()[a * 3 + 1],
                        -grad.data()[a * 3 + 2]});
    }
  } else {
    const autograd::NoGradGuard guard;
    energy = model.forward(batch).energy.at(0, 0);
  }
  return {energy, forces};
}

// ---------------------------------------------------------------------------
// Canonicalization

TEST(CanonicalizeTest, TranslatedCopyHasIdenticalKey) {
  Rng rng(1);
  const AtomicStructure s = random_cluster(12, 5.0, rng);
  const CanonicalKey a = canonicalize(s);
  const CanonicalKey b = canonicalize(translated(s, {3.25, -1.5, 0.75}));
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(CanonicalizeTest, PermutedCopyHasIdenticalKeyAndConsistentPerm) {
  Rng rng(2);
  const AtomicStructure s = random_cluster(10, 5.0, rng);
  std::vector<std::size_t> order(10);
  std::iota(order.begin(), order.end(), 0u);
  std::reverse(order.begin(), order.end());
  const AtomicStructure p = permuted(s, order);

  const CanonicalKey ka = canonicalize(s);
  const CanonicalKey kb = canonicalize(p);
  EXPECT_EQ(ka.hash, kb.hash);
  EXPECT_EQ(ka.bytes, kb.bytes);
  // perm maps request order to canonical order: atom i of `p` is atom
  // order[i] of `s`, so both must land on the same canonical slot.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(kb.perm[i], ka.perm[order[i]]);
  }
}

TEST(CanonicalizeTest, PerturbationAboveQuantumChangesKey) {
  Rng rng(3);
  AtomicStructure s = random_cluster(8, 5.0, rng);
  const CanonicalKey before = canonicalize(s);
  s.positions[3].x += 10 * kCanonicalQuantum;
  const CanonicalKey after = canonicalize(s);
  EXPECT_NE(before.bytes, after.bytes);
}

TEST(CanonicalizeTest, SpeciesAndPeriodicityAreKeyed) {
  Rng rng(4);
  AtomicStructure s = random_cluster(8, 5.0, rng);
  const CanonicalKey base = canonicalize(s);

  AtomicStructure other_species = s;
  other_species.species[0] =
      other_species.species[0] == elements::kH ? elements::kC : elements::kH;
  EXPECT_NE(canonicalize(other_species).bytes, base.bytes);

  AtomicStructure periodic = s;
  periodic.cell = {20, 20, 20};
  periodic.periodic = true;
  EXPECT_NE(canonicalize(periodic).bytes, base.bytes);
}

// ---------------------------------------------------------------------------
// StructureCache

TEST(StructureCacheTest, HitRequiresMatchingBytesNotJustHash) {
  StructureCache cache(8);
  Rng rng(5);
  const CanonicalKey key = canonicalize(random_cluster(6, 5.0, rng));
  CachedResult result;
  result.energy = -3.5;
  cache.insert(key, result);

  CachedResult out;
  EXPECT_TRUE(cache.lookup(key, /*need_forces=*/false, out));
  EXPECT_DOUBLE_EQ(out.energy, -3.5);

  // Forced collision: same hash, different canonical bytes. Must be a
  // counted miss (recompute), never a wrong answer.
  CanonicalKey collider = key;
  collider.bytes += "#not-the-same-structure";
  EXPECT_FALSE(cache.lookup(collider, /*need_forces=*/false, out));
  EXPECT_EQ(cache.stats().collisions, 1);
}

TEST(StructureCacheTest, EnergyOnlyEntryCannotServeForceRequest) {
  StructureCache cache(8);
  Rng rng(6);
  const CanonicalKey key = canonicalize(random_cluster(6, 5.0, rng));
  CachedResult energy_only;
  energy_only.energy = 1.25;
  cache.insert(key, energy_only);

  CachedResult out;
  EXPECT_FALSE(cache.lookup(key, /*need_forces=*/true, out));
  EXPECT_TRUE(cache.lookup(key, /*need_forces=*/false, out));
}

TEST(StructureCacheTest, EvictsLeastRecentlyUsed) {
  StructureCache cache(2);
  Rng rng(7);
  const CanonicalKey a = canonicalize(random_cluster(4, 5.0, rng));
  const CanonicalKey b = canonicalize(random_cluster(5, 5.0, rng));
  const CanonicalKey c = canonicalize(random_cluster(6, 5.0, rng));
  cache.insert(a, CachedResult{});
  cache.insert(b, CachedResult{});

  CachedResult out;
  EXPECT_TRUE(cache.lookup(a, false, out));  // touch a; b is now LRU
  cache.insert(c, CachedResult{});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(a, false, out));
  EXPECT_FALSE(cache.lookup(b, false, out));
  EXPECT_TRUE(cache.lookup(c, false, out));
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(StructureCacheTest, ZeroCapacityDisablesCaching) {
  StructureCache cache(0);
  Rng rng(8);
  const CanonicalKey key = canonicalize(random_cluster(4, 5.0, rng));
  cache.insert(key, CachedResult{});
  CachedResult out;
  EXPECT_FALSE(cache.lookup(key, false, out));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Autograd tape discipline

TEST(ServeTest, GuardedForwardAllocatesNoTapeNodes) {
  // The energy-only serving path promises a tape-free forward even though
  // the model's parameters still require grad. Pin it: the live autograd
  // node count must be flat across the guarded forward.
  const EGNNModel model(serve_config());
  Rng rng(9);
  const MolecularGraph graph =
      MolecularGraph::from_structure(random_cluster(14, 5.0, rng), 3.5);
  const GraphBatch batch =
      GraphBatch::from_graphs(std::vector<const MolecularGraph*>{&graph});

  const std::int64_t before = autograd::live_node_count();
  {
    const autograd::NoGradGuard guard;
    const auto out = model.forward(batch);
    EXPECT_FALSE(out.energy.requires_grad());
    EXPECT_EQ(autograd::live_node_count(), before);
  }
  EXPECT_EQ(autograd::live_node_count(), before);

  // Sanity check on the instrument itself: an unguarded forward does
  // allocate tape nodes (otherwise the pin above proves nothing).
  {
    const auto out = model.forward(batch);
    EXPECT_GT(autograd::live_node_count(), before);
  }
  EXPECT_EQ(autograd::live_node_count(), before);
}

// ---------------------------------------------------------------------------
// Server end-to-end

TEST(ServerTest, BatchedResultsMatchSingleStructureInference) {
  const ModelConfig config = serve_config();
  const EGNNModel reference(config);
  ServerOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;  // exercise the compute path only
  Server server(config, model_payload_bytes(reference), options);

  Rng rng(10);
  std::vector<AtomicStructure> structures;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 12; ++i) {
    structures.push_back(random_cluster(4 + i, 6.0, rng));
    futures.push_back(
        server.submit({structures.back(), /*compute_forces=*/i % 2 == 0}));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult result = futures[i].get();
    const bool want_forces = i % 2 == 0;
    const auto [energy, forces] =
        reference_predict(reference, structures[i], want_forces);
    EXPECT_NEAR(result.energy, energy, 1e-9) << "request " << i;
    ASSERT_EQ(result.forces.size(), forces.size());
    for (std::size_t a = 0; a < forces.size(); ++a) {
      EXPECT_NEAR(result.forces[a].x, forces[a].x, 1e-9);
      EXPECT_NEAR(result.forces[a].y, forces[a].y, 1e-9);
      EXPECT_NEAR(result.forces[a].z, forces[a].z, 1e-9);
    }
  }
}

TEST(ServerTest, CacheServesPermutedDuplicateWithMappedForces) {
  const ModelConfig config = serve_config();
  const EGNNModel reference(config);
  Server server(config, model_payload_bytes(reference), ServerOptions{});

  Rng rng(11);
  const AtomicStructure s = random_cluster(9, 5.0, rng);
  const InferenceResult first = server.submit({s, true}).get();
  EXPECT_FALSE(first.cache_hit);

  std::vector<std::size_t> order(9);
  std::iota(order.begin(), order.end(), 0u);
  std::swap(order[0], order[7]);
  std::swap(order[2], order[5]);
  const AtomicStructure dup =
      translated(permuted(s, order), {1.0, 2.0, -0.5});
  const InferenceResult second = server.submit({dup, true}).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.energy, first.energy);
  // Forces must come back in the duplicate's own atom order.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(second.forces[i], first.forces[order[i]]);
  }
}

TEST(ServerTest, EnergyOnlyCacheEntryDoesNotServeForceRequest) {
  const ModelConfig config = serve_config();
  const EGNNModel reference(config);
  Server server(config, model_payload_bytes(reference), ServerOptions{});

  Rng rng(12);
  const AtomicStructure s = random_cluster(7, 5.0, rng);
  EXPECT_FALSE(server.submit({s, false}).get().cache_hit);
  const InferenceResult forced = server.submit({s, true}).get();
  EXPECT_FALSE(forced.cache_hit);  // recompute: cached entry had no forces
  EXPECT_EQ(forced.forces.size(), 7u);
  EXPECT_TRUE(server.submit({s, true}).get().cache_hit);
}

TEST(ServerTest, EmptyStructureIsServedDirectly) {
  const ModelConfig config = serve_config();
  const EGNNModel reference(config);
  Server server(config, model_payload_bytes(reference), ServerOptions{});
  const InferenceResult result = server.submit({AtomicStructure{}, true}).get();
  EXPECT_DOUBLE_EQ(result.energy, 0.0);
  EXPECT_TRUE(result.forces.empty());
}

TEST(ServerTest, InvalidSpeciesIsRejectedAtAdmission) {
  ModelConfig config = serve_config();
  config.num_species = 10;
  const EGNNModel reference(config);
  Server server(config, model_payload_bytes(reference), ServerOptions{});
  AtomicStructure s;
  s.species = {29};  // Cu, outside the 10-species vocabulary
  s.positions = {{0, 0, 0}};
  EXPECT_THROW(server.submit({s, false}), Error);
}

TEST(ServerTest, OverloadShedsWithTypedRejection) {
  const ModelConfig config = serve_config();
  const EGNNModel reference(config);
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 2;
  options.max_batch_graphs = 1;  // serve one request at a time
  options.cache_capacity = 0;    // every request must be computed
  Server server(config, model_payload_bytes(reference), options);

  // Submission is orders of magnitude faster than inference, so a tiny
  // queue must shed under a burst. Every accepted request still completes.
  Rng rng(13);
  std::vector<std::future<InferenceResult>> accepted;
  std::int64_t shed = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      accepted.push_back(
          server.submit({random_cluster(24, 6.0, rng), /*forces=*/true}));
    } catch (const RejectedError& e) {
      EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0) << "burst of 64 never overflowed a 2-deep queue";
  for (auto& future : accepted) EXPECT_NO_THROW(future.get());
}

TEST(ServerTest, SubmitAfterStopIsRejectedAsShuttingDown) {
  const ModelConfig config = serve_config();
  const EGNNModel reference(config);
  ServerOptions options;
  options.cache_capacity = 0;
  Server server(config, model_payload_bytes(reference), options);
  server.stop();
  Rng rng(14);
  try {
    server.submit({random_cluster(5, 5.0, rng), false});
    FAIL() << "submit after stop() must throw";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShuttingDown);
  }
}

TEST(ServerTest, WeightSwapUnderLoadIsZeroDowntime) {
  const ModelConfig config = serve_config();
  const EGNNModel model_v1(config);
  ModelConfig v2_config = config;
  v2_config.seed = 999;  // same architecture, different weights
  const EGNNModel model_v2(v2_config);

  ServerOptions options;
  options.num_workers = 2;
  options.max_batch_graphs = 2;
  options.cache_capacity = 0;
  Server server(config, model_payload_bytes(model_v1), options);

  // Precompute what each weight set predicts for every structure: any
  // served energy must match one of them exactly, or the swap tore the
  // weights mid-request.
  Rng rng(15);
  std::vector<AtomicStructure> structures;
  std::vector<double> expect_v1;
  std::vector<double> expect_v2;
  for (int i = 0; i < 40; ++i) {
    structures.push_back(random_cluster(6 + i % 5, 6.0, rng));
    expect_v1.push_back(
        reference_predict(model_v1, structures.back(), false).first);
    expect_v2.push_back(
        reference_predict(model_v2, structures.back(), false).first);
  }

  std::vector<std::future<InferenceResult>> futures;
  const std::string v2_payload = model_payload_bytes(model_v2);
  for (std::size_t i = 0; i < structures.size(); ++i) {
    if (i == structures.size() / 2) {
      server.swap_weights(v2_payload);  // mid-stream, requests in flight
    }
    futures.push_back(server.submit({structures[i], false}));
  }

  std::size_t served_v2 = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult result = futures[i].get();  // no failed requests
    if (result.weights_version == 1) {
      EXPECT_NEAR(result.energy, expect_v1[i], 1e-9) << "request " << i;
    } else {
      EXPECT_EQ(result.weights_version, 2u);
      EXPECT_NEAR(result.energy, expect_v2[i], 1e-9) << "request " << i;
      ++served_v2;
    }
  }
  EXPECT_GT(served_v2, 0u) << "swap never took effect";
  EXPECT_EQ(server.weights_version(), 2u);

  // A corrupt payload must be rejected without touching the served weights.
  std::string torn = v2_payload;
  torn.resize(torn.size() / 2);
  EXPECT_THROW(server.swap_weights(torn), Error);
  EXPECT_EQ(server.weights_version(), 2u);
}

TEST(ServerTest, SwapsWeightsStraightFromACheckpointDirectory) {
  // A training checkpoint carries the served weight payload as its "model"
  // section, so the newest snapshot under a checkpoint directory can be
  // swapped in without a separate model export.
  const ModelConfig config = serve_config();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sgnn_serve_ckpt_swap")
          .string();
  std::filesystem::remove_all(dir);

  const ReferencePotential potential;
  Rng data_rng(16);
  std::vector<MolecularGraph> graphs;
  for (int i = 0; i < 8; ++i) {
    graphs.push_back(generate_sample(DataSource::kANI1x, data_rng, potential));
  }
  std::vector<const MolecularGraph*> views;
  for (const auto& graph : graphs) views.push_back(&graph);
  EGNNModel trained(config);
  TrainOptions train_options;
  train_options.epochs = 2;
  train_options.batch_size = 4;
  train_options.checkpoint.every_steps = 2;
  train_options.checkpoint.directory = dir;
  DataLoader loader(views, train_options.batch_size, 5);
  Trainer(trained, train_options).fit(loader);

  ServerOptions options;
  options.cache_capacity = 0;
  Server server(config, model_payload_bytes(EGNNModel(config)), options);
  const auto latest = ckpt::CheckpointManager::load_latest(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 4u);
  server.swap_weights(ckpt::SnapshotView(latest->payload).bytes("model"));
  EXPECT_EQ(server.weights_version(), 2u);

  Rng rng(17);
  const AtomicStructure structure = random_cluster(7, 5.0, rng);
  const InferenceResult result = server.submit({structure, true}).get();
  EXPECT_EQ(result.weights_version, 2u);
  const auto [energy, forces] = reference_predict(trained, structure, true);
  EXPECT_NEAR(result.energy, energy, 1e-9);
  ASSERT_EQ(result.forces.size(), forces.size());
  for (std::size_t a = 0; a < forces.size(); ++a) {
    EXPECT_NEAR(result.forces[a].x, forces[a].x, 1e-9);
    EXPECT_NEAR(result.forces[a].y, forces[a].y, 1e-9);
    EXPECT_NEAR(result.forces[a].z, forces[a].z, 1e-9);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, ConcurrentSubmittersAllComplete) {
  const ModelConfig config = serve_config();
  const EGNNModel reference(config);
  ServerOptions options;
  options.num_workers = 3;
  options.max_queue = 4096;
  Server server(config, model_payload_bytes(reference), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const InferenceResult result =
            server.submit({random_cluster(5, 5.0, rng), i % 3 == 0}).get();
        if (std::isfinite(result.energy)) completed.fetch_add(1);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace sgnn::serve
