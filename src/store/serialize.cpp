#include "sgnn/store/serialize.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define SGNN_STORE_HAS_FSYNC 1
#endif

namespace sgnn {

namespace {

void write_vec3(std::ostream& out, const Vec3& v) {
  write_raw(out, v.x);
  write_raw(out, v.y);
  write_raw(out, v.z);
}

Vec3 read_vec3(std::istream& in) {
  Vec3 v;
  v.x = read_raw<double>(in);
  v.y = read_raw<double>(in);
  v.z = read_raw<double>(in);
  return v;
}

}  // namespace

void write_graph_record(std::ostream& out, const MolecularGraph& graph) {
  graph.validate();
  const auto n = static_cast<std::uint64_t>(graph.num_nodes());
  const auto e = static_cast<std::uint64_t>(graph.num_edges());
  write_raw(out, n);
  write_raw(out, e);
  write_raw(out, graph.energy);
  write_raw(out, graph.dipole);
  write_vec3(out, graph.structure.cell);
  write_raw(out, static_cast<std::uint8_t>(graph.structure.periodic ? 1 : 0));
  for (const auto z : graph.structure.species) {
    write_raw(out, static_cast<std::int32_t>(z));
  }
  for (const auto& p : graph.structure.positions) write_vec3(out, p);
  for (const auto& f : graph.forces) write_vec3(out, f);
  for (std::size_t k = 0; k < graph.edges.src.size(); ++k) {
    write_raw(out, graph.edges.src[k]);
    write_raw(out, graph.edges.dst[k]);
  }
  for (const auto& d : graph.edges.displacement) write_vec3(out, d);
  SGNN_CHECK(out.good(), "write failure while serializing graph");
}

MolecularGraph read_graph_record(std::istream& in) {
  MolecularGraph graph;
  const auto n = read_raw<std::uint64_t>(in);
  const auto e = read_raw<std::uint64_t>(in);
  // Sanity bounds protect against reading garbage as a huge allocation.
  SGNN_CHECK(n < (1ULL << 32) && e < (1ULL << 36),
             "implausible graph record header (n=" << n << ", e=" << e << ")");
  graph.energy = read_raw<double>(in);
  graph.dipole = read_raw<double>(in);
  graph.structure.cell = read_vec3(in);
  graph.structure.periodic = read_raw<std::uint8_t>(in) != 0;
  graph.structure.species.resize(n);
  for (auto& z : graph.structure.species) z = read_raw<std::int32_t>(in);
  graph.structure.positions.resize(n);
  for (auto& p : graph.structure.positions) p = read_vec3(in);
  graph.forces.resize(n);
  for (auto& f : graph.forces) f = read_vec3(in);
  graph.edges.src.resize(e);
  graph.edges.dst.resize(e);
  for (std::size_t k = 0; k < e; ++k) {
    graph.edges.src[k] = read_raw<std::int64_t>(in);
    graph.edges.dst[k] = read_raw<std::int64_t>(in);
  }
  graph.edges.displacement.resize(e);
  for (auto& d : graph.edges.displacement) d = read_vec3(in);
  graph.validate();
  return graph;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// -- SGCK snapshot container ------------------------------------------------

namespace {

constexpr char kSnapshotMagic[4] = {'S', 'G', 'C', 'K'};
constexpr std::uint32_t kSnapshotVersion = 1;
// Header: magic + u32 version + u64 payload_size. Trailer: u32 crc + magic.
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8;
constexpr std::uint64_t kTrailerBytes = 4 + 4;

/// Flushes file (or directory) contents to stable storage where the
/// platform supports it; the write path remains correct without it, just
/// not power-failure-proof.
void fsync_path(const std::string& path) {
#ifdef SGNN_STORE_HAS_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

// -- SnapshotBuilder --------------------------------------------------------

void SnapshotBuilder::add_bytes(const std::string& name, std::string bytes) {
  SGNN_CHECK(!name.empty(), "snapshot section needs a name");
  SGNN_CHECK(sections_.find(name) == sections_.end(),
             "duplicate snapshot section '" << name << "'");
  sections_[name] = std::move(bytes);
}

void SnapshotBuilder::add_u64(const std::string& name, std::uint64_t value) {
  add_bytes(name, pod_bytes(value));
}

void SnapshotBuilder::add_i64(const std::string& name, std::int64_t value) {
  add_bytes(name, pod_bytes(value));
}

void SnapshotBuilder::add_f64(const std::string& name, double value) {
  add_bytes(name, pod_bytes(value));
}

void SnapshotBuilder::add_reals(const std::string& name, const real* data,
                                std::size_t count) {
  SGNN_CHECK(data != nullptr || count == 0, "null data in snapshot section");
  std::string bytes(count * sizeof(real), '\0');
  std::memcpy(bytes.data(), data, bytes.size());
  add_bytes(name, std::move(bytes));
}

void SnapshotBuilder::add_u64s(const std::string& name,
                               const std::vector<std::uint64_t>& values) {
  std::string bytes(values.size() * sizeof(std::uint64_t), '\0');
  std::memcpy(bytes.data(), values.data(), bytes.size());
  add_bytes(name, std::move(bytes));
}

std::string SnapshotBuilder::payload() const {
  std::ostringstream out;
  write_raw(out, static_cast<std::uint64_t>(sections_.size()));
  for (const auto& [name, bytes] : sections_) {
    write_raw(out, static_cast<std::uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_raw(out, static_cast<std::uint64_t>(bytes.size()));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return out.str();
}

// -- SnapshotView -----------------------------------------------------------

SnapshotView::SnapshotView(const std::string& payload) {
  std::size_t cursor = 0;
  const auto take = [&](std::size_t count) {
    SGNN_CHECK(cursor + count <= payload.size(),
               "snapshot payload truncated at byte " << cursor);
    const char* begin = payload.data() + cursor;
    cursor += count;
    return begin;
  };
  const auto take_u64 = [&] {
    std::uint64_t value;
    std::memcpy(&value, take(sizeof(value)), sizeof(value));
    return value;
  };
  const std::uint64_t count = take_u64();
  // Each section costs at least 16 bytes of framing; a corrupt count can
  // therefore never drive more iterations than the payload could hold.
  SGNN_CHECK(count <= payload.size() / 16,
             "snapshot section count " << count << " exceeds payload bounds");
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_size = take_u64();
    SGNN_CHECK(name_size > 0 && name_size <= payload.size(),
               "snapshot section name out of bounds");
    std::string name(take(name_size), name_size);
    const std::uint64_t data_size = take_u64();
    SGNN_CHECK(data_size <= payload.size() - cursor,
               "snapshot section '" << name << "' data out of bounds");
    std::string bytes(take(data_size), data_size);
    SGNN_CHECK(sections_.emplace(std::move(name), std::move(bytes)).second,
               "snapshot carries a duplicate section");
  }
  SGNN_CHECK(cursor == payload.size(),
             "snapshot payload has " << payload.size() - cursor
                                     << " trailing bytes");
}

bool SnapshotView::has(const std::string& name) const {
  return sections_.find(name) != sections_.end();
}

const std::string& SnapshotView::bytes(const std::string& name) const {
  const auto it = sections_.find(name);
  SGNN_CHECK(it != sections_.end(),
             "snapshot is missing section '" << name << "'");
  return it->second;
}

std::uint64_t SnapshotView::u64(const std::string& name) const {
  return pod_from_bytes<std::uint64_t>(bytes(name));
}

std::int64_t SnapshotView::i64(const std::string& name) const {
  return pod_from_bytes<std::int64_t>(bytes(name));
}

double SnapshotView::f64(const std::string& name) const {
  return pod_from_bytes<double>(bytes(name));
}

std::vector<real> SnapshotView::reals(const std::string& name) const {
  const std::string& raw = bytes(name);
  SGNN_CHECK(raw.size() % sizeof(real) == 0,
             "snapshot section '" << name << "' is not a real[] image");
  std::vector<real> values(raw.size() / sizeof(real));
  std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

std::vector<std::uint64_t> SnapshotView::u64s(const std::string& name) const {
  const std::string& raw = bytes(name);
  SGNN_CHECK(raw.size() % sizeof(std::uint64_t) == 0,
             "snapshot section '" << name << "' is not a u64[] image");
  std::vector<std::uint64_t> values(raw.size() / sizeof(std::uint64_t));
  std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

// -- container file IO ------------------------------------------------------

std::uint64_t write_snapshot_file(const std::string& path,
                                  const std::string& payload) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SGNN_CHECK(out.is_open(), "cannot open '" << tmp << "' for writing");
    out.write(kSnapshotMagic, 4);
    write_raw(out, kSnapshotVersion);
    write_raw(out, static_cast<std::uint64_t>(payload.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    write_raw(out, crc32(payload.data(), payload.size()));
    out.write(kSnapshotMagic, 4);
    out.flush();
    SGNN_CHECK(out.good(), "write failure while saving snapshot '" << tmp
                                                                   << "'");
  }
  // Data must be durable BEFORE the rename publishes the file: rename is
  // atomic on POSIX, so after it the name always refers to complete bytes.
  fsync_path(tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  SGNN_CHECK(!ec, "cannot publish snapshot '" << path << "': " << ec.message());
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) fsync_path(parent.string());
  return kHeaderBytes + payload.size() + kTrailerBytes;
}

std::string read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SGNN_CHECK(in.is_open(), "cannot open snapshot '" << path << "'");
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  SGNN_CHECK(file_size >= kHeaderBytes + kTrailerBytes,
             "'" << path << "' too small to be a snapshot");
  char magic[4];
  in.read(magic, 4);
  SGNN_CHECK(in.good() && std::equal(magic, magic + 4, kSnapshotMagic),
             "'" << path << "' is not a snapshot file");
  const auto version = read_raw<std::uint32_t>(in);
  SGNN_CHECK(version == kSnapshotVersion,
             "'" << path << "' has unsupported snapshot version " << version);
  const auto payload_size = read_raw<std::uint64_t>(in);
  // Bound the allocation by what the file can actually hold — a flipped
  // header byte must produce a clean Error, not a huge allocation.
  SGNN_CHECK(payload_size <= file_size - kHeaderBytes - kTrailerBytes,
             "'" << path << "' declares " << payload_size
                 << " payload bytes but holds only "
                 << file_size - kHeaderBytes - kTrailerBytes);
  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  SGNN_CHECK(in.good(), "'" << path << "' truncated payload");
  const auto stored_crc = read_raw<std::uint32_t>(in);
  char tail[4];
  in.read(tail, 4);
  SGNN_CHECK(in.good() && std::equal(tail, tail + 4, kSnapshotMagic),
             "'" << path << "' missing trailer");
  SGNN_CHECK(crc32(payload.data(), payload.size()) == stored_crc,
             "'" << path << "' CRC mismatch (corrupt snapshot)");
  return payload;
}

}  // namespace sgnn
