#include "inputs.hpp"

#include <numeric>

#include "sgnn/data/sources.hpp"
#include "sgnn/potential/potential.hpp"
#include "sgnn/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace sgnn;

AggregatedDataset mix_dataset(std::uint64_t seed, std::uint64_t bytes) {
  DatasetOptions options;
  options.target_bytes = bytes;
  options.seed = seed;
  return AggregatedDataset::generate(options, ReferencePotential());
}

std::vector<MolecularGraph> molecule_samples(std::uint64_t seed,
                                             std::int64_t count) {
  const ReferencePotential potential;
  Rng rng(seed ^ 0x6D6F6CULL);
  std::vector<MolecularGraph> graphs;
  for (std::int64_t i = 0; i < count; ++i) {
    graphs.push_back(generate_sample(
        i % 2 == 0 ? DataSource::kANI1x : DataSource::kQM7X, rng, potential));
  }
  return graphs;
}

std::vector<MolecularGraph> slab_samples(std::uint64_t seed,
                                         std::int64_t count) {
  const ReferencePotential potential;
  Rng rng(seed ^ 0x736C6162ULL);
  const double oc20 = source_spec(DataSource::kOC2020).byte_fraction;
  const double oc22 = source_spec(DataSource::kOC2022).byte_fraction;
  std::vector<MolecularGraph> graphs;
  for (std::int64_t i = 0; i < count; ++i) {
    const DataSource source = rng.uniform() * (oc20 + oc22) < oc20
                                  ? DataSource::kOC2020
                                  : DataSource::kOC2022;
    graphs.push_back(generate_sample(source, rng, potential));
  }
  return graphs;
}

std::vector<MolecularGraph> held_out_mix() {
  const ReferencePotential potential;
  Rng rng(kHeldOutSeed);
  const int counts[] = {2, 2, 6, 4, 2};  // in DataSource order
  std::vector<MolecularGraph> graphs;
  for (int source = 0; source < 5; ++source) {
    for (int i = 0; i < counts[source]; ++i) {
      graphs.push_back(
          generate_sample(static_cast<DataSource>(source), rng, potential));
    }
  }
  return graphs;
}

std::vector<ServeRequest> serve_stream(std::uint64_t seed, std::int64_t count,
                                       bool fresh_only) {
  Rng rng(seed ^ (fresh_only ? 0x66726573ULL : 0x73657276ULL));
  // The mix is laid out in blocks rather than drawn request by request, so
  // every seed gets exactly the stated shares (and so nearly the same cache
  // hit share): in each block of ten, five requests repeat an earlier
  // structure and two ask for forces, one of them a repeat; every other
  // repeat is transformed, alternately translated and permuted; fresh
  // structures cycle through the five generators in a seeded order per
  // group of five.
  const auto shuffled = [&rng](std::size_t n) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t k = n; k > 1; --k) {
      std::swap(order[k - 1], order[rng.uniform_index(k)]);
    }
    return order;
  };
  std::vector<ServeRequest> stream;
  std::vector<std::int64_t> fresh;  // indices of fresh requests so far
  std::vector<std::size_t> block;   // block position -> role
  std::vector<std::size_t> sources;
  std::int64_t repeats = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    const auto position = static_cast<std::size_t>(i % 10);
    if (position == 0) block = shuffled(10);
    ServeRequest request;
    // Roles by shuffled position: 5-9 repeat; 0 and 5 ask for forces. A
    // fresh-only stream instead gives forces to one structure in each group
    // of five (one per generator), rotating through the generators, so each
    // generator sends exactly 20% force requests.
    request.forces = block[position] == 0 || block[position] == 5;
    const bool repeat = !fresh_only && block[position] >= 5 && !fresh.empty();
    if (repeat) {
      const std::int64_t j = fresh[rng.uniform_index(fresh.size())];
      const ServeRequest& original = stream[static_cast<std::size_t>(j)];
      request.structure = original.structure;
      request.source = original.source;
      request.repeat_of = j;
      if (repeats++ % 2 == 1) {
        AtomicStructure& s = request.structure;
        // A translated periodic copy may wrap differently, which the cache
        // deliberately treats as a new structure; periodic repeats are
        // therefore always permuted.
        if (!s.periodic && repeats % 4 == 0) {
          const Vec3 shift{rng.uniform(-2, 2), rng.uniform(-2, 2),
                           rng.uniform(-2, 2)};
          for (Vec3& p : s.positions) p = p + shift;
          request.transform = 1;
        } else {
          const std::vector<std::size_t> order = shuffled(s.species.size());
          AtomicStructure permuted = s;
          for (std::size_t k = 0; k < order.size(); ++k) {
            permuted.species[k] = s.species[order[k]];
            permuted.positions[k] = s.positions[order[k]];
          }
          s = std::move(permuted);
          request.transform = 2;
        }
      }
    } else {
      if (fresh.size() % 5 == 0) sources = shuffled(5);
      request.source = static_cast<int>(sources[fresh.size() % 5]);
      if (fresh_only) {
        request.forces =
            static_cast<std::size_t>(request.source) == (fresh.size() / 5) % 5;
      }
      request.structure =
          generate_structure(static_cast<DataSource>(request.source), rng);
      fresh.push_back(i);
    }
    stream.push_back(std::move(request));
  }
  return stream;
}

namespace {
std::uint64_t digest_structure(const AtomicStructure& s, std::uint64_t h) {
  h = fnv1a(s.species.data(), s.species.size() * sizeof(int), h);
  h = fnv1a(s.positions.data(), s.positions.size() * sizeof(Vec3), h);
  h = fnv1a(&s.cell, sizeof(Vec3), h);
  const unsigned char periodic = s.periodic ? 1 : 0;
  return fnv1a(&periodic, 1, h);
}
}  // namespace

std::uint64_t digest(const std::vector<MolecularGraph>& graphs) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const MolecularGraph& g : graphs) {
    h = digest_structure(g.structure, h);
    h = fnv1a(&g.energy, sizeof(double), h);
    h = fnv1a(g.forces.data(), g.forces.size() * sizeof(Vec3), h);
  }
  return h;
}

std::uint64_t digest(const std::vector<ServeRequest>& requests) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const ServeRequest& r : requests) {
    h = digest_structure(r.structure, h);
    const unsigned char forces = r.forces ? 1 : 0;
    h = fnv1a(&forces, 1, h);
  }
  return h;
}

}  // namespace perfbench
