#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "sgnn/graph/graph.hpp"
#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

/// Writes the native-endian byte image of a trivially-copyable value. The
/// bytes go through a char buffer (memcpy) rather than a reinterpret_cast
/// of &value: the on-disk layout is identical, but no pointer of the wrong
/// type is ever formed.
template <typename T>
void write_raw(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.write(bytes, sizeof(T));
}

/// Reads what write_raw wrote; throws Error when the stream runs dry.
template <typename T>
T read_raw(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  in.read(bytes, sizeof(T));
  SGNN_CHECK(in.good(), "truncated input: needed " << sizeof(T) << " bytes");
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

/// Binary graph record layout (little-endian, fixed width):
///   u64 node_count, u64 edge_count, f64 energy, f64 dipole,
///   3 x f64 cell, u8 periodic,
///   node_count x i32 species,
///   node_count x 3 x f64 positions,
///   node_count x 3 x f64 forces,
///   edge_count x 2 x i64 endpoints,
///   edge_count x 3 x f64 displacements.
/// MolecularGraph::serialized_bytes() mirrors this layout byte for byte.
void write_graph_record(std::ostream& out, const MolecularGraph& graph);

/// Reads one record; throws Error on truncated or malformed input.
MolecularGraph read_graph_record(std::istream& in);

/// CRC-32 (IEEE 802.3 polynomial) used by the snapshot and bp containers.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

// -- SGCK snapshot container ------------------------------------------------
//
// The one container for model files and training state: a versioned,
// CRC-verified file holding named byte sections. A model file is a snapshot
// with the single section "model"; training checkpoints add optimizer,
// sampler and schedule sections next to it (see docs/fault-tolerance.md).
//
// File layout (native-endian, like every sgnn container):
//   "SGCK" | u32 version | u64 payload_size | payload | u32 crc | "SGCK"
// payload:
//   u64 section_count | per section: u64 name_size, name bytes,
//                                    u64 data_size, data bytes

/// Byte image of a trivially-copyable value (the pod sections: RNG state,
/// counters). memcpy-based, so no pointer of the wrong type is formed.
template <typename T>
std::string pod_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::string bytes(sizeof(T), '\0');
  std::memcpy(bytes.data(), &value, sizeof(T));
  return bytes;
}

template <typename T>
T pod_from_bytes(const std::string& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  SGNN_CHECK(bytes.size() == sizeof(T),
             "snapshot section holds " << bytes.size() << " bytes, expected "
                                       << sizeof(T));
  T value;
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

/// Accumulates named sections and serializes them into a snapshot payload.
/// Sections are kept in name order, so payload bytes are deterministic
/// regardless of insertion order.
class SnapshotBuilder {
 public:
  void add_bytes(const std::string& name, std::string bytes);
  void add_u64(const std::string& name, std::uint64_t value);
  void add_i64(const std::string& name, std::int64_t value);
  void add_f64(const std::string& name, double value);
  /// Raw real[] image (optimizer moments, flattened parameters).
  void add_reals(const std::string& name, const real* data, std::size_t count);
  void add_u64s(const std::string& name,
                const std::vector<std::uint64_t>& values);

  /// Serialized payload (the body the container CRC covers).
  std::string payload() const;

 private:
  std::map<std::string, std::string> sections_;
};

/// Parses a snapshot payload back into sections. Every accessor throws
/// Error on a missing section or a size mismatch — a corrupt or
/// wrong-kind snapshot can never be half-applied.
class SnapshotView {
 public:
  explicit SnapshotView(const std::string& payload);

  bool has(const std::string& name) const;
  const std::string& bytes(const std::string& name) const;
  std::uint64_t u64(const std::string& name) const;
  std::int64_t i64(const std::string& name) const;
  double f64(const std::string& name) const;
  std::vector<real> reals(const std::string& name) const;
  std::vector<std::uint64_t> u64s(const std::string& name) const;

 private:
  std::map<std::string, std::string> sections_;
};

/// Writes `payload` to `path` crash-safely: the container goes to a
/// temporary sibling first, is fsync'd, and only then renamed over `path`
/// (the directory entry is fsync'd too). A crash at any point leaves either
/// the previous file or the complete new one — never a torn write under the
/// final name. Returns the size of the written file in bytes.
std::uint64_t write_snapshot_file(const std::string& path,
                                  const std::string& payload);

/// Reads and verifies a snapshot container; throws Error on missing file,
/// bad magic/version, truncation, or CRC mismatch. The payload allocation
/// is bounded by the actual file size, so a corrupt header cannot trigger
/// a multi-gigabyte allocation.
std::string read_snapshot_file(const std::string& path);

}  // namespace sgnn
