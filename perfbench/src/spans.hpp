#pragma once

// In-memory span recorder for the traced run. Spans are opened and closed by
// the benchmark's own code around each call into a library layer; nothing in
// the library is instrumented for this. The recorder keeps every span in
// memory and writes them once, at exit.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;     ///< "<layer>.<call>", e.g. "nn.forward"
  double start = 0;     ///< seconds since the recorder was created
  double end = 0;
  int parent = -1;      ///< index of the enclosing span, -1 at top level
  std::int64_t id = 0;  ///< step or request id the span belongs to
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span on the calling thread's stack; returns its index.
  int open(const std::string& name, std::int64_t id);
  void close(int index);
  /// Records an already-finished span (e.g. a request measured from its
  /// scheduled send) as a child of `parent`.
  int add(const std::string& name, double start, double end, int parent,
          std::int64_t id);
  double now() const;

  /// Self time per layer: every span's duration minus the time its children
  /// cover, summed by layer (the name up to the first '.').
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Total duration of the spans with exactly this name.
  double total_seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  /// Writes the spans as a JSON array of
  /// {"name", "start", "end", "parent", "id"} objects.
  void write_json(const std::string& path) const;

  std::vector<Span> spans() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, std::int64_t id)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, id) : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
