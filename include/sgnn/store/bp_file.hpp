#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sgnn/graph/graph.hpp"

namespace sgnn {

/// One footer index entry: where a record sits and the CRC-32 of its bytes.
struct BpIndexEntry {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Single-file graph container inspired by ADIOS BP: a stream of variable-
/// length records followed by a footer holding the record index, so readers
/// can (a) random-access any graph and (b) detect truncation or corruption
/// before handing data to training. This is the on-disk format the dataset
/// pipeline uses in place of the paper's ADIOS files. It stays separate from
/// the SGCK snapshot container on purpose: records are streamed out as they
/// are produced and read back one at a time (StreamingLoader), so each
/// record carries its own CRC instead of one CRC over the whole file.
///
/// Layout:
///   "SGBP" magic | u32 version | records... |
///   footer: u64 record_count |
///           record_count x (u64 offset, u64 size, u32 record crc) |
///           u32 crc of the footer index | u64 footer_size | "SGBP"
class BpWriter {
 public:
  explicit BpWriter(const std::string& path);
  ~BpWriter();
  BpWriter(const BpWriter&) = delete;
  BpWriter& operator=(const BpWriter&) = delete;

  /// Appends one graph record; returns its index.
  std::size_t append(const MolecularGraph& graph);

  /// Writes the footer and closes the file. Must be called exactly once;
  /// a file without a footer is detected as corrupt by BpReader.
  void finalize();

  std::size_t record_count() const { return index_.size(); }
  /// Bytes written so far (records only, before the footer).
  std::uint64_t payload_bytes() const;

 private:
  std::ofstream out_;
  std::string path_;
  std::vector<BpIndexEntry> index_;
  bool finalized_ = false;
};

/// Random-access reader for BpWriter files; validates magic, version and
/// footer CRC at open time, and each record's CRC when it is read.
class BpReader {
 public:
  explicit BpReader(const std::string& path);

  std::size_t size() const { return index_.size(); }
  /// Throws Error when the record's bytes fail their CRC or do not parse.
  MolecularGraph read(std::size_t record) const;
  /// Serialized size of one record (what DDStore counts as traffic).
  std::uint64_t record_bytes(std::size_t record) const;

 private:
  mutable std::ifstream in_;
  std::string path_;
  std::vector<BpIndexEntry> index_;
};

}  // namespace sgnn
