#pragma once

// Workload inputs, all derived from the --seed argument: the same seed gives
// the same inputs (and digest), another seed gives other inputs. The library
// receives only the generated data.

#include <cstdint>
#include <vector>

#include "sgnn/data/dataset.hpp"
#include "sgnn/graph/graph.hpp"

namespace perfbench {

/// train_mix: the aggregated five-source dataset at `bytes`.
sgnn::AggregatedDataset mix_dataset(std::uint64_t seed, std::uint64_t bytes);

/// train_zero: `count` labeled molecules, ANI1x and QM7-X alternating.
std::vector<sgnn::MolecularGraph> molecule_samples(std::uint64_t seed,
                                                   std::int64_t count);

/// train_gpar: `count` labeled OC2020 / OC2022 slabs, drawn in the two
/// sources' byte-share ratio.
std::vector<sgnn::MolecularGraph> slab_samples(std::uint64_t seed,
                                               std::int64_t count);

/// Seed of the held-out sets: the same on every --seed, so loss_final is
/// read on fixed data and moves only with the trained weights.
inline constexpr std::uint64_t kHeldOutSeed = 0x686F6C64ULL;

/// train_mix held-out set: 16 labeled graphs in the mix's proportions
/// (2 ANI1x, 2 QM7-X, 6 OC2020, 4 OC2022, 2 MPTrj), from kHeldOutSeed.
std::vector<sgnn::MolecularGraph> held_out_mix();

/// One serve_open request of the pre-generated stream.
struct ServeRequest {
  sgnn::AtomicStructure structure;
  bool forces = false;
  int source = 0;        ///< generator the structure came from
  std::int64_t repeat_of = -1;  ///< earlier request index, -1 when fresh
  int transform = 0;     ///< 0 verbatim, 1 translated, 2 permuted
};

/// serve_open: `count` requests from all five generators in equal shares.
/// 20% ask for forces; half repeat an earlier structure, and half of the
/// repeats are translated (open systems only) or permuted copies. With
/// `fresh_only` every request is a new structure (the miss-only probes).
std::vector<ServeRequest> serve_stream(std::uint64_t seed, std::int64_t count,
                                       bool fresh_only = false);

std::uint64_t digest(const std::vector<sgnn::MolecularGraph>& graphs);
std::uint64_t digest(const std::vector<ServeRequest>& requests);

}  // namespace perfbench
