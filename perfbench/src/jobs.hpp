// The jobs the benchmark times, and the entry points it times them through.
//
// A Job owns one seeded input, its serial reference result (from
// apps/references.cpp, computed once, outside every timed region), a copy of
// the input in a page-cached file for the streaming entry point, and one warm
// runtime per batch entry point:
//
//   ramr    core::Runtime::run            (RAMR pipelined, SPSC rings)
//   fused   phoenix::Runtime::run         (Phoenix++ fused combine)
//   atomic  mrphi::Runtime::run           (one atomic global container)
//   stream  core::Runtime::run_stream     (mmap windows fed by the IO lane)
//
// plus serve(), one closed-loop client request through service::Scheduler.
// Every result is compared with the reference after the clock stops.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/global_apps.hpp"
#include "apps/histogram.hpp"
#include "apps/inputs.hpp"
#include "apps/streaming.hpp"
#include "apps/wordcount.hpp"
#include "containers/atomic_array_container.hpp"
#include "core/runtime.hpp"
#include "io/chunk_source.hpp"
#include "io/io_config.hpp"
#include "io/stream_feeder.hpp"
#include "io/stream_input.hpp"
#include "mrphi/runtime.hpp"
#include "phoenix/runtime.hpp"
#include "sched/parallel_sort.hpp"
#include "sched/thread_pool.hpp"
#include "service/scheduler.hpp"
#include "spsc/ring.hpp"
#include "topology/topology.hpp"

#include "host.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Entry { kRamr, kFused, kAtomic, kStream };

inline const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kRamr:
      return "ramr";
    case Entry::kFused:
      return "fused";
    case Entry::kAtomic:
      return "atomic";
    case Entry::kStream:
      return "stream";
  }
  return "?";
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The RunResult fields the per-layer metrics read.
struct RunStats {
  ramr::PhaseTimers timers;
  std::size_t tasks = 0;
  std::size_t steals = 0;
  std::size_t pushes = 0;
  std::size_t failed_pushes = 0;
  std::size_t pop_batches = 0;
  std::size_t sleeps = 0;
  std::size_t max_occupancy = 0;
  ramr::engine::IoStats io;
};

template <typename R>
RunStats stats_of(const R& r) {
  RunStats s;
  s.timers = r.timers;
  s.tasks = r.tasks_executed;
  s.steals = r.steals;
  s.pushes = r.queue_pushes;
  s.failed_pushes = r.queue_failed_pushes;
  s.pop_batches = r.queue_batches;
  s.sleeps = r.backoff_sleeps;
  s.max_occupancy = r.queue_max_occupancy;
  s.io = r.io;
  return s;
}

// One timed call through an entry point.
struct Outcome {
  bool ok = true;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time during the call
  RunStats stats;
};

// One service request as its client saw it.
struct ServeOutcome {
  bool ok = true;
  std::string error;
  double latency_s = 0.0;  // submit() -> future ready
  ramr::service::JobReport report;
  RunStats stats;
};

// What one single-threaded replay of a job measured.
struct ReplayOutcome {
  bool ok = true;
  std::uint64_t emits = 0;
  std::uint64_t distinct_keys = 0;
};

class Job {
 public:
  virtual ~Job() = default;

  const std::string& name() const { return name_; }
  std::uint64_t bytes() const { return bytes_; }
  // Constructs (or destroys) the warm runtime of every batch entry point.
  virtual void build_runtimes() = 0;
  virtual void drop_runtimes() = 0;

  // One timed call through `e`; the output is checked after the clock
  // stops. Spans: root "job" with children "runtime.run" (the call) and
  // "check".
  virtual Outcome run(Entry e, Tracer& tracer) = 0;

  // One closed-loop request: submit, wait on the future, then (untimed)
  // wait for the terminal report and check the output. Spans: root "job"
  // with children "service.submit", "service.wait", "check".
  virtual ServeOutcome serve(ramr::service::Scheduler& sched,
                             Tracer& tracer) = 0;

  // Single-threaded replay (root "replay"): the app's map over every split
  // with a discarding emitter ("apps.map"), the recorded emissions fed into
  // make_container() ("containers.combine"), and the output pairs sorted
  // with sched::parallel_sort on `pool` ("sched.sort").
  virtual ReplayOutcome replay(Tracer& tracer,
                               ramr::sched::ThreadPool& pool) = 0;

 protected:
  Job(std::string name, std::uint64_t bytes)
      : name_(std::move(name)), bytes_(bytes) {}

 private:
  std::string name_;
  std::uint64_t bytes_;
};

// ---- shared helpers ---------------------------------------------------------

inline void write_file(const std::string& path, const char* data,
                       std::size_t size) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(data, static_cast<std::streamsize>(size));
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
  // Read it back once so the streaming entry point reads from page cache.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size()))) {
  }
}

template <typename Got, typename Ref>
bool same_pairs(const std::vector<Got>& got, const std::vector<Ref>& ref) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].first == ref[i].first) || got[i].second != ref[i].second) {
      return false;
    }
  }
  return true;
}

// ---- Word Count -------------------------------------------------------------

// Word Count under the MRPhi design, which needs the key range a priori:
// the vocabulary of the generated text is known, so each word maps to its
// rank in the sorted reference and the counts live in one atomic array.
// The map body is WordCountApp's own tokenizer.
struct DictWordCountApp {
  using input_type = ramr::apps::TextInput;
  using container_type =
      ramr::containers::AtomicArrayContainer<std::uint64_t,
                                             ramr::containers::AtomicOp::kAdd>;

  ramr::apps::WordCountApp<ramr::apps::ContainerFlavor::kDefault> base;
  const std::unordered_map<std::string_view, std::size_t>* ids = nullptr;

  std::size_t num_splits(const input_type& in) const {
    return base.num_splits(in);
  }
  container_type make_global_container() const {
    return container_type(ids->size());
  }
  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    base.map(in, split, [&](std::string_view word, std::uint64_t n) {
      emit(ids->find(word)->second, n);
    });
  }
};

struct WcFamily {
  using App = ramr::apps::WordCountApp<ramr::apps::ContainerFlavor::kDefault>;
  using GlobalApp = DictWordCountApp;
  using StreamApp = ramr::apps::StreamWordCountApp;

  struct Data {
    ramr::apps::TextInput input;
    std::vector<std::pair<std::string_view, std::uint64_t>> ref;
    std::unordered_map<std::string_view, std::size_t> ids;
  };

  // Zipf text over a 64k-word vocabulary (tens of thousands of distinct
  // keys per job); keys are views into data.input.
  static void make(Data& d, std::size_t bytes, std::uint64_t seed) {
    d.input.text = ramr::apps::make_text(bytes, 64 * 1024, seed);
    for (const auto& [word, n] : ramr::apps::wordcount_reference(d.input)) {
      d.ids.emplace(word, d.ref.size());
      d.ref.emplace_back(word, n);
    }
  }
  static const char* raw(const Data& d) { return d.input.text.data(); }
  static std::size_t size(const Data& d) { return d.input.text.size(); }
  static GlobalApp global_app(const Data& d) {
    GlobalApp g;
    g.ids = &d.ids;
    return g;
  }
  static StreamApp stream_app() {
    StreamApp a;
    a.max_distinct_words = 64 * 1024;  // run_wordcount_stream's default
    return a;
  }
  static ramr::io::RecordBreak record_break() {
    return ramr::io::text_record_break;
  }

  static bool check(const Data& d,
                    const std::vector<std::pair<std::string_view,
                                                std::uint64_t>>& got) {
    return same_pairs(got, d.ref);
  }
  static bool check(const Data& d,
                    const std::vector<std::pair<std::string,
                                                std::uint64_t>>& got) {
    return same_pairs(got, d.ref);
  }
  // Atomic results are (rank, count) pairs in rank order.
  static bool check(const Data& d,
                    const std::vector<std::pair<std::size_t,
                                                std::uint64_t>>& got) {
    if (got.size() != d.ref.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].first != i || got[i].second != d.ref[i].second) return false;
    }
    return true;
  }
};

// ---- Histogram --------------------------------------------------------------

struct HgFamily {
  using App = ramr::apps::HistogramApp<ramr::apps::ContainerFlavor::kDefault>;
  using GlobalApp = ramr::apps::HistogramGlobalApp;
  using StreamApp = ramr::apps::StreamHistogramApp;

  struct Data {
    ramr::apps::PixelInput input;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ref;
  };

  static void make(Data& d, std::size_t bytes, std::uint64_t seed) {
    d.input.bytes = ramr::apps::make_pixels(bytes, seed);
    for (const auto& kv : ramr::apps::histogram_reference(d.input)) {
      d.ref.push_back(kv);
    }
  }
  static const char* raw(const Data& d) {
    return reinterpret_cast<const char*>(d.input.bytes.data());
  }
  static std::size_t size(const Data& d) { return d.input.bytes.size(); }
  static GlobalApp global_app(const Data&) { return GlobalApp{}; }
  static StreamApp stream_app() { return StreamApp{}; }
  // Binary stream: windows cut anywhere.
  static ramr::io::RecordBreak record_break() { return nullptr; }

  static bool check(const Data& d,
                    const std::vector<std::pair<std::uint64_t,
                                                std::uint64_t>>& got) {
    return same_pairs(got, d.ref);
  }
};

// ---- the job template -------------------------------------------------------

template <typename Fam>
class FamilyJob final : public Job {
 public:
  using App = typename Fam::App;
  using GlobalApp = typename Fam::GlobalApp;
  using StreamApp = typename Fam::StreamApp;

  // Generates the input and its reference, and writes the input to
  // `path` for the streaming entry point (none when `path` is empty: the
  // job is only served through the scheduler).
  FamilyJob(std::string name, std::size_t bytes, std::uint64_t seed,
            std::string path)
      : Job(std::move(name), bytes), path_(std::move(path)) {
    Fam::make(data_, bytes, seed);
    global_app_ = Fam::global_app(data_);
    stream_app_ = Fam::stream_app();
    io_.mode = ramr::io::IoMode::kMmap;
    if (!path_.empty()) write_file(path_, Fam::raw(data_), Fam::size(data_));
  }

  ~FamilyJob() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  void build_runtimes() override {
    const ramr::topo::Topology host = ramr::topo::host();
    ramr_.emplace(host, ramr::RuntimeConfig{});
    fused_.emplace(host);
    atomic_.emplace(host);
    stream_.emplace(host, ramr::RuntimeConfig{});
  }

  void drop_runtimes() override {
    ramr_.reset();
    fused_.reset();
    atomic_.reset();
    stream_.reset();
  }

  Outcome run(Entry e, Tracer& tracer) override {
    switch (e) {
      case Entry::kRamr:
        return timed(tracer, [&] { return ramr_->run(app_, data_.input); });
      case Entry::kFused:
        return timed(tracer, [&] { return fused_->run(app_, data_.input); });
      case Entry::kAtomic:
        return timed(tracer,
                     [&] { return atomic_->run(global_app_, data_.input); });
      case Entry::kStream:
        return timed(tracer, [&] {
          ramr::io::StreamInput input(io_, split_bytes());
          ramr::io::StreamFeeder feeder(
              ramr::io::open_chunk_source(path_, io_, Fam::record_break()),
              input, io_);
          return stream_->run_stream(stream_app_, input, feeder);
        });
    }
    throw std::logic_error("unknown entry");
  }

  ServeOutcome serve(ramr::service::Scheduler& sched,
                     Tracer& tracer) override {
    ServeOutcome o;
    ScopedSpan job(tracer, "job");
    ramr::service::JobSpec spec;
    spec.name = name();
    const auto t0 = std::chrono::steady_clock::now();
    ramr::service::JobId id = 0;
    std::shared_future<ramr::mr::result_of<App>> future;
    {
      ScopedSpan s(tracer, "service.submit", job.id());
      auto submitted = sched.submit(std::move(spec), app_, data_.input);
      id = submitted.first;
      future = std::move(submitted.second);
    }
    {
      ScopedSpan s(tracer, "service.wait", job.id());
      future.wait();
    }
    o.latency_s = seconds_since(t0);
    ScopedSpan s(tracer, "check", job.id());
    try {
      const auto& result = future.get();
      o.stats = stats_of(result);
      if (!Fam::check(data_, result.pairs)) {
        o.ok = false;
        o.error = name() + ": service output differs from the reference";
      }
    } catch (const std::exception& ex) {
      o.ok = false;
      o.error = name() + ": " + ex.what();
    }
    o.report = sched.wait(id);
    if (o.report.status != ramr::service::JobStatus::kDone) {
      o.ok = false;
      if (o.error.empty()) {
        o.error = name() + ": job " + ramr::service::to_string(o.report.status);
      }
    }
    return o;
  }

  ReplayOutcome replay(Tracer& tracer,
                       ramr::sched::ThreadPool& pool) override {
    using K = ramr::mr::key_type_of<App>;
    using V = ramr::mr::value_type_of<App>;
    ReplayOutcome o;
    ScopedSpan root(tracer, "replay");
    const std::size_t splits = app_.num_splits(data_.input);
    {
      ScopedSpan s(tracer, "apps.map", root.id());
      std::uint64_t emits = 0;
      std::uint64_t checksum = 0;
      for (std::size_t i = 0; i < splits; ++i) {
        app_.map(data_.input, i, [&](const K&, const V& v) {
          ++emits;
          checksum += v;
        });
      }
      o.emits = emits;
      sink_ += checksum;
    }
    // Record a chunk of splits' emissions (untimed, replay self time),
    // then feed them to the container (timed) — bounded memory.
    auto container = app_.make_container();
    std::vector<std::pair<K, V>> buffer;
    constexpr std::size_t kChunk = 16;
    for (std::size_t lo = 0; lo < splits; lo += kChunk) {
      buffer.clear();
      const std::size_t hi = std::min(splits, lo + kChunk);
      for (std::size_t i = lo; i < hi; ++i) {
        app_.map(data_.input, i,
                 [&](const K& k, const V& v) { buffer.emplace_back(k, v); });
      }
      ScopedSpan s(tracer, "containers.combine", root.id());
      for (const auto& [k, v] : buffer) container.emit(k, v);
    }
    std::vector<std::pair<K, V>> pairs;
    container.for_each(
        [&](const K& k, const V& v) { pairs.emplace_back(k, v); });
    o.distinct_keys = pairs.size();
    {
      ScopedSpan s(tracer, "sched.sort", root.id());
      ramr::sched::parallel_sort(
          pool, pairs, [](const auto& a, const auto& b) {
            return a.first < b.first;
          });
    }
    o.ok = Fam::check(data_, pairs);
    return o;
  }

 private:
  std::size_t split_bytes() const { return 64 * 1024; }

  template <typename Call>
  Outcome timed(Tracer& tracer, Call&& call) {
    using Result = decltype(call());
    Outcome o;
    std::optional<Result> result;
    ScopedSpan job(tracer, "job");
    const double c0 = process_cpu_s();
    const auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan run(tracer, "runtime.run", job.id());
      try {
        result.emplace(call());
      } catch (const std::exception& ex) {
        o.error = name() + ": " + ex.what();
      }
    }
    o.wall_s = seconds_since(t0);
    o.cpu_s = process_cpu_s() - c0;
    ScopedSpan check(tracer, "check", job.id());
    if (!result) {
      o.ok = false;
    } else if (!Fam::check(data_, result->pairs)) {
      o.ok = false;
      o.error = name() + ": output differs from the reference";
    } else {
      o.stats = stats_of(*result);
    }
    return o;
  }

  typename Fam::Data data_;
  std::string path_;
  App app_;
  GlobalApp global_app_;
  StreamApp stream_app_;
  ramr::io::IoConfig io_;
  std::optional<ramr::core::Runtime<App>> ramr_;
  std::optional<ramr::phoenix::Runtime<App>> fused_;
  std::optional<ramr::mrphi::Runtime<GlobalApp>> atomic_;
  std::optional<ramr::core::Runtime<StreamApp>> stream_;
  std::uint64_t sink_ = 0;  // keeps the discarding replay observable
};

// ---- SPSC ring replay -------------------------------------------------------

// One producer and one consumer move `n` (key, 1) records through one
// spsc::Ring of the library's default queue capacity, the consumer draining
// in batches of the default batch size. Returns false if any record was
// lost or altered.
inline bool ring_replay(std::size_t n, Tracer& tracer, std::uint64_t parent) {
  using Rec = std::pair<std::uint64_t, std::uint64_t>;
  const ramr::RuntimeConfig defaults;
  ramr::spsc::Ring<Rec> ring(defaults.queue_capacity);
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  ScopedSpan span(tracer, "spsc.ring", parent);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      Rec r{i, 1};
      while (!ring.try_push(std::move(r))) std::this_thread::yield();
    }
    ring.close();
  });
  for (;;) {
    const std::size_t got = ring.consume_batch(
        [&](std::span<Rec> batch) {
          for (const Rec& r : batch) {
            sum += r.first;
            count += r.second;
          }
        },
        defaults.batch_size);
    if (got == 0) {
      if (ring.closed() && ring.empty()) break;
      std::this_thread::yield();
    }
  }
  producer.join();
  return count == n && sum == static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

}  // namespace perfbench
