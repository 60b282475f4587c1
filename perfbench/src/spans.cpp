#include "spans.hpp"

#include <fstream>

#include "stats.hpp"

namespace perfbench {

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;
}  // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::open(const std::string& name, std::int64_t id) {
  const double start = now();
  const int parent = t_open.empty() ? -1 : t_open.back();
  const int index = add(name, start, start, parent, id);
  t_open.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  const double end = now();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

int SpanRecorder::add(const std::string& name, double start, double end,
                      int parent, std::int64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  const std::vector<Span> all = spans();
  // Children of one span run one after another on its thread, so the time
  // they cover is the sum of their durations.
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    self[i] = all[i].end - all[i].start;
  }
  for (const Span& span : all) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i) {
    by_layer[all[i].name.substr(0, all[i].name.find('.'))] += self[i];
  }
  return by_layer;
}

double SpanRecorder::total_seconds(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans()) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

std::size_t SpanRecorder::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& span : spans()) {
    if (span.name == name) ++n;
  }
  return n;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"name\":\"" << s.name << "\",\"start\":" << json_number(s.start)
        << ",\"end\":" << json_number(s.end) << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
