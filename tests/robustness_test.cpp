// Robustness and stress tests across substrates: randomized failure
// injection for the storage formats, concurrency stress for the store and
// communicator, statistical checks on the dataset generators, and
// smoothness of the reference potential at the cutoff boundary.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/data/sources.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/store/bp_file.hpp"
#include "sgnn/store/ddstore.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

MolecularGraph sample_graph(std::uint64_t seed) {
  const ReferencePotential potential;
  Rng rng(seed);
  return generate_sample(DataSource::kANI1x, rng, potential);
}

TEST(RobustnessTest, BpFileSurvivesRandomTruncationWithoutUb) {
  // Any truncation point must either yield a valid reader (impossible
  // here, the footer is gone) or a clean Error — never a crash or a
  // silently wrong record count.
  const std::string path =
      (std::filesystem::temp_directory_path() / "sgnn_trunc_fuzz.bp")
          .string();
  {
    BpWriter writer(path);
    for (std::uint64_t s = 1; s <= 4; ++s) writer.append(sample_graph(s));
    writer.finalize();
  }
  const auto full_size = std::filesystem::file_size(path);
  Rng rng(99);
  for (int trial = 0; trial < 24; ++trial) {
    const auto cut = 1 + rng.uniform_index(full_size - 1);
    const std::string clone =
        (std::filesystem::temp_directory_path() / "sgnn_trunc_clone.bp")
            .string();
    std::filesystem::copy_file(
        path, clone, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(clone, cut);
    EXPECT_THROW(BpReader reader(clone), Error) << "cut at " << cut;
    std::remove(clone.c_str());
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, BpFileSurvivesRandomByteFlips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sgnn_flip_fuzz.bp")
          .string();
  {
    BpWriter writer(path);
    for (std::uint64_t s = 1; s <= 3; ++s) writer.append(sample_graph(s));
    writer.finalize();
  }
  const auto full_size = std::filesystem::file_size(path);
  Rng rng(7);
  int detected = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string clone =
        (std::filesystem::temp_directory_path() / "sgnn_flip_clone.bp")
            .string();
    std::filesystem::copy_file(
        path, clone, std::filesystem::copy_options::overwrite_existing);
    {
      std::fstream f(clone, std::ios::in | std::ios::out | std::ios::binary);
      const auto offset = rng.uniform_index(full_size);
      f.seekg(static_cast<std::streamoff>(offset));
      char byte;
      f.read(&byte, 1);
      byte = static_cast<char>(
          static_cast<unsigned char>(byte) ^
          static_cast<unsigned char>(1 + rng.uniform_index(255)));
      f.seekp(static_cast<std::streamoff>(offset));
      f.write(&byte, 1);
    }
    // Opening may throw (header/footer damage) or succeed; reading any
    // record may throw (payload damage) — but nothing may crash, and a
    // record that does parse must still satisfy the graph invariants
    // (read_graph_record validates).
    try {
      const BpReader reader(clone);
      for (std::size_t r = 0; r < reader.size(); ++r) {
        try {
          reader.read(r).validate();
        } catch (const Error&) {
          ++detected;
          break;
        }
      }
    } catch (const Error&) {
      ++detected;
    }
    std::remove(clone.c_str());
  }
  // Every record carries its own CRC in the footer index and the index has
  // a CRC of its own, so flips in the payload are caught as well as the
  // structural ones (model_corruption_test flips every byte).
  EXPECT_GT(detected, 0);
}

TEST(RobustnessTest, DDStoreConcurrentFetchIsSafeAndCountsEveryAccess) {
  DDStore store(4);
  {
    std::vector<MolecularGraph> graphs;
    for (std::uint64_t s = 1; s <= 16; ++s) graphs.push_back(sample_graph(s));
    store.insert(std::move(graphs));
  }
  constexpr int kThreads = 4;
  constexpr int kFetchesPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kFetchesPerThread; ++i) {
        const auto index = static_cast<std::int64_t>(rng.uniform_index(16));
        const MolecularGraph& g = store.fetch(t, index);
        ASSERT_GT(g.num_nodes(), 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = store.stats();
  EXPECT_EQ(stats.local_hits + stats.remote_fetches,
            static_cast<std::uint64_t>(kThreads * kFetchesPerThread));
}

TEST(RobustnessTest, CommunicatorHandlesManySmallCollectivesBackToBack) {
  // Stress the barrier/posting protocol: hundreds of collectives with no
  // pause between them must neither deadlock nor mix payloads.
  const int R = 3;
  Communicator comm(R);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int r = 0; r < R; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < 300; ++round) {
        std::vector<real> data = {static_cast<real>(r + 1),
                                  static_cast<real>(round)};
        comm.all_reduce_sum(r, data);
        if (data[0] != real{6} ||
            data[1] != static_cast<real>(3 * round)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RobustnessTest, GeneratedGraphStatisticsMatchTableOne) {
  // The generators must keep per-source statistics in the neighborhood of
  // Tab. I (nodes/graph most importantly — byte accounting depends on it).
  const ReferencePotential potential;
  struct Expectation {
    DataSource source;
    double min_nodes;
    double max_nodes;
  };
  const std::vector<Expectation> expectations = {
      {DataSource::kANI1x, 8, 24},
      {DataSource::kQM7X, 9, 26},
      {DataSource::kOC2020, 55, 90},
      {DataSource::kOC2022, 60, 100},
      {DataSource::kMPTrj, 24, 40},
  };
  Rng rng(31);
  for (const auto& e : expectations) {
    double nodes = 0;
    double edges = 0;
    const int samples = 6;
    for (int i = 0; i < samples; ++i) {
      const MolecularGraph g = generate_sample(e.source, rng, potential);
      g.validate();
      nodes += static_cast<double>(g.num_nodes());
      edges += static_cast<double>(g.num_edges());
    }
    nodes /= samples;
    edges /= samples;
    EXPECT_GE(nodes, e.min_nodes) << source_spec(e.source).name;
    EXPECT_LE(nodes, e.max_nodes) << source_spec(e.source).name;
    // Tab. I reports 11-27 edges/node across sources; require the right
    // order of magnitude.
    EXPECT_GT(edges / nodes, 5.0) << source_spec(e.source).name;
    EXPECT_LT(edges / nodes, 40.0) << source_spec(e.source).name;
  }
}

TEST(RobustnessTest, PotentialIsSmoothAtTheCutoff) {
  // Energy and force must go to zero continuously as a pair crosses the
  // cutoff — discontinuities would corrupt both labels and MD.
  ReferencePotential::Options options;
  options.cutoff = 3.0;
  options.angular_weight = 0;  // two atoms: no triplets anyway
  const ReferencePotential potential(options);
  AtomicStructure s;
  s.species = {elements::kCu, elements::kCu};
  s.positions = {{0, 0, 0}, {0, 0, 0}};

  double previous_energy = 0;
  bool first = true;
  for (double r = 2.80; r <= 3.05; r += 0.002) {
    s.positions[1] = {r, 0, 0};
    const PotentialResult result = potential.evaluate(s);
    if (!first) {
      EXPECT_LT(std::abs(result.energy - previous_energy), 5e-3)
          << "energy jump at r=" << r;
    }
    previous_energy = result.energy;
    first = false;
    if (r > 3.0) {
      const double isolated =
          potential.atomic_reference_energy(elements::kCu) * 2;
      EXPECT_NEAR(result.energy, isolated, 1e-12);
      EXPECT_NEAR(result.forces[0].norm(), 0.0, 1e-12);
    }
  }
}

TEST(RobustnessTest, ModelRejectsMalformedBatches) {
  ModelConfig config;
  config.hidden_dim = 8;
  config.num_layers = 1;
  const EGNNModel model(config);
  GraphBatch empty;
  EXPECT_THROW(model.forward(empty), Error);
}

}  // namespace
}  // namespace sgnn
