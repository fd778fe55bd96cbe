// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files around calls into the
// library's public functions; nothing inside the library is instrumented.
// Every span carries its root's id, so the spans of one timed job share an
// identifier. Spans stay in memory and are written once, when the run ends.
//
// Self time of a span is its duration minus the part of its interval that
// its children cover; across one root's tree the self times sum to the
// root's duration (reconcile() measures how closely they do).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root
  std::uint64_t root = 0;    // id of the root of this span's tree
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span under `parent` (0 = new root); returns its id, or 0 when
  // tracing is off.
  std::uint64_t begin(std::string name, std::uint64_t parent = 0) {
    if (!enabled_) return 0;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.root = parent == 0 ? s.id : spans_[parent - 1].root;
    s.name = std::move(name);
    s.start_ns = t;
    s.end_ns = t;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void end(std::uint64_t id) {
    if (id == 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = t;
  }

  // Records a finished span with explicit times (used by tests).
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.root = parent == 0 ? s.id : spans_[parent - 1].root;
    s.name = std::move(name);
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// Self time (ns) of every span, indexed like `spans` (id - 1): duration
// minus the union of its children's intervals clipped to the span.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent - 1].push_back({s.start_ns, s.end_ns});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start_ns);
      hi = std::min(hi, spans[i].end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

// Largest |sum of self times in a tree - root duration| / root duration
// over all roots (0 for an exact reconciliation). Children that stick out
// of their parent or overlap each other make the sum differ.
inline double reconcile(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::uint64_t, std::int64_t> sum;
  for (std::size_t i = 0; i < spans.size(); ++i) sum[spans[i].root] += self[i];
  double worst = 0.0;
  for (const auto& [root, total] : sum) {
    const std::int64_t d = spans[root - 1].duration_ns();
    if (d <= 0) continue;
    const double err =
        static_cast<double>(total > d ? total - d : d - total) /
        static_cast<double>(d);
    worst = std::max(worst, err);
  }
  return worst;
}

// Chrome trace-event JSON ("X" complete events, one tid per root), for
// chrome://tracing or Perfetto.
inline void write_chrome_trace(std::ostream& out,
                               const std::vector<Span>& spans) {
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.root << ",\"ts\":" << (s.start_ns - t0) / 1000.0
        << ",\"dur\":" << s.duration_ns() / 1000.0 << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
}

}  // namespace perfbench
