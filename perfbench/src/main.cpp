// perfbench: the native end-to-end and per-layer benchmark of the RAMR
// runtimes. See ../README.md for the workloads, the metrics and why each
// exists. Usually started through run.py, which builds this binary.
//
//   perfbench --workload <wc-zipf|hist-hotkeys|service-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--data-dir <dir>]
//             [--commit <id>] [--lib-build-type <type>]
//
// The last line of stdout is the result object; the line before it holds
// the full details (stamp, host interference, every timing's quartiles,
// tail and n). Exit code 2 = refused to run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "topology/topology.hpp"

#include "host.hpp"
#include "jobs.hpp"
#include "json.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string data_dir = ".";
  std::string commit = "unknown";
  std::string lib_build_type;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--data-dir") {
      a.data_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--lib-build-type") {
      a.lib_build_type = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Sample series by name; summarized once at the end.
class Series {
 public:
  void add(const std::string& name, double v) { data_[name].push_back(v); }
  const std::vector<double>& get(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = data_.find(name);
    return it == data_.end() ? kEmpty : it->second;
  }
  std::size_t count(const std::string& name) const { return get(name).size(); }
  double median(const std::string& name) const {
    return summarize(get(name)).median;
  }
  const std::map<std::string, std::vector<double>>& all() const {
    return data_;
  }

 private:
  std::map<std::string, std::vector<double>> data_;
};

// Failure accounting: every job run (timed, set-up, service, replay).
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, for the details line

  void note(std::size_t calls, std::size_t failures, const std::string& err) {
    attempted += calls;
    failed += failures;
    if (failures > 0 && errors.size() < 8) errors.push_back(err);
  }
};

// The seeded job sequence of the closed loop: blocks in which every class
// appears exactly `per_block` times, in a seeded order, so the class
// proportions are exact at every block boundary.
class JobSequence {
 public:
  JobSequence(const std::vector<JobClass>& classes, std::uint64_t seed)
      : rng_(seed ^ 0x5e41ce5eull) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      for (std::size_t i = 0; i < classes[c].per_block; ++i) block_.push_back(c);
    }
  }
  std::size_t next() {
    if (pos_ == order_.size()) {
      order_ = block_;
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::size_t> block_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

void record_run_stats(Series& s, const std::string& suffix,
                      const RunStats& st) {
  using ramr::Phase;
  s.add("engine.split_s" + suffix, st.timers.seconds(Phase::kSplit));
  s.add("engine.map_combine_s" + suffix, st.timers.seconds(Phase::kMapCombine));
  s.add("engine.reduce_s" + suffix, st.timers.seconds(Phase::kReduce));
  s.add("engine.merge_s" + suffix, st.timers.seconds(Phase::kMerge));
}

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), tracer_(args.trace), untraced_(false) {}

  int run() {
    const CpuJiffies j0 = read_cpu_jiffies();
    const double load_start = load_average_1m();
    make_jobs();
    setup();
    measure();
    finish();
    const CpuJiffies j1 = read_cpu_jiffies();
    steal_frac_ = steal_fraction(j0, j1);
    load_start_ = load_start;
    load_end_ = load_average_1m();
    peak_rss_mb_ = peak_rss_mb();
    report();
    return 0;
  }

 private:
  // ---- inputs ---------------------------------------------------------------

  Job& make_job(const JobClass& c, bool with_file) {
    auto it = jobs_.find(c.name);
    if (it != jobs_.end()) return *it->second;
    // Each class gets its own input stream derived from the run seed (FNV-1a
    // of the class name, so the derivation is the same on every platform).
    std::uint64_t seed = 0xcbf29ce484222325ull ^ args_.seed;
    for (const char ch : c.name) {
      seed = (seed ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
    }
    const std::string path =
        with_file ? args_.data_dir + "/" + spec_.name + "-" + c.name + "-" +
                        std::to_string(args_.seed) + ".bin"
                  : std::string();
    std::unique_ptr<Job> job;
    if (c.kind == Kind::kWc) {
      job = std::make_unique<FamilyJob<WcFamily>>(c.name, c.bytes, seed, path);
    } else {
      job = std::make_unique<FamilyJob<HgFamily>>(c.name, c.bytes, seed, path);
    }
    Job& ref = *job;
    jobs_.emplace(c.name, std::move(job));
    return ref;
  }

  void make_jobs() {
    batch_ = &make_job(spec_.batch, true);
    for (const JobClass& c : spec_.mix) mix_jobs_.push_back(&make_job(c, false));
    if (serves()) {
      sequence_ = std::make_unique<JobSequence>(spec_.mix, args_.seed);
    }
  }

  // Whether the workload runs closed-loop service episodes; without them
  // the benchmark itself is the caller, so a job's latency is the RAMR
  // call's duration.
  bool serves() const { return !spec_.mix.empty(); }

  // ---- set-up ---------------------------------------------------------------

  // Construction of every runtime and the scheduler plus the first (cold)
  // job through each entry point, repeated; the last repetition's objects
  // are the warm ones the measurement uses.
  void setup() {
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      if (rep > 0) {
        sched_.reset();
        batch_->drop_runtimes();
      }
      const auto t0 = std::chrono::steady_clock::now();
      batch_->build_runtimes();
      if (serves()) {
        sched_ = std::make_unique<ramr::service::Scheduler>(ramr::topo::host());
      }
      for (Entry e : kEntries) {
        const Outcome o = batch_->run(e, untraced_);
        ops_.note(1, o.ok ? 0 : 1, o.error);
      }
      if (serves()) {
        const ServeOutcome s = batch_->serve(*sched_, untraced_);
        ops_.note(1, s.ok ? 0 : 1, s.error);
      }
      series_.add("setup_s", seconds_since(t0));
    }
  }

  // ---- measurement ----------------------------------------------------------

  void measure() {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<ramr::sched::ThreadPool> sort_pool;
    if (args_.trace) {
      sort_pool = std::make_unique<ramr::sched::ThreadPool>(
          std::max(1u, std::thread::hardware_concurrency()));
    }
    // Stop once the time is up and every series has enough samples; never
    // run past three times the budget.
    for (std::size_t round = 0;; ++round) {
      const double elapsed = seconds_since(t0);
      const bool enough = round >= kMinRounds &&
                          series_.count("latency_s") >= spec_.min_latency;
      if ((elapsed >= args_.seconds && enough) ||
          (round > 0 && elapsed >= 3.0 * args_.seconds)) {
        break;
      }
      round_jobs_ = 0;
      round_wall_s_ = 0.0;
      for (Entry e : kEntries) run_entry(e, tracer_, "");
      if (args_.trace) run_entry(Entry::kRamr, untraced_, ".untraced");
      if (serves()) episode();
      if (round_wall_s_ > 0) {
        series_.add("goodput_jps",
                    static_cast<double>(round_jobs_) / round_wall_s_);
      }
      if (args_.trace) {
        const ReplayOutcome r = batch_->replay(tracer_, *sort_pool);
        ops_.note(1, r.ok ? 0 : 1, batch_->name() + ": replay output differs");
        replay_bytes_ += batch_->bytes();
        replay_emits_ += r.emits;
        series_.add("containers.distinct_keys",
                    static_cast<double>(r.distinct_keys));
        ScopedSpan root(tracer_, "replay.spsc");
        const bool ok = ring_replay(kRingRecords, tracer_, root.id());
        ops_.note(1, ok ? 0 : 1, "spsc ring replay lost records");
      }
    }
    measured_s_ = seconds_since(t0);
  }

  void run_entry(Entry e, Tracer& tracer, const std::string& tag) {
    for (std::size_t i = 0; i < spec_.calls_per_round(e); ++i) {
      run_call(e, tracer, tag);
    }
  }

  void run_call(Entry e, Tracer& tracer, const std::string& tag) {
    const Outcome o = batch_->run(e, tracer);
    ops_.note(1, o.ok ? 0 : 1, o.error);
    if (!o.ok) return;
    const std::string suffix = e == Entry::kRamr ? "" : std::string(".") + entry_name(e);
    series_.add("job_s" + suffix + tag, o.wall_s);
    if (!tag.empty()) return;
    record_run_stats(series_, suffix, o.stats);
    const RunStats& st = o.stats;
    if (e == Entry::kRamr) {
      if (!serves()) {
        series_.add("latency_s", o.wall_s);
        ++round_jobs_;
        round_wall_s_ += o.wall_s;
      }
      series_.add("cpu_s.ramr", o.cpu_s);
      series_.add("engine.outside_phases_s", o.wall_s - st.timers.total());
      series_.add("sched.tasks", static_cast<double>(st.tasks));
      series_.add("sched.steals", static_cast<double>(st.steals));
      series_.add("spsc.pushes", static_cast<double>(st.pushes));
      const double attempts =
          static_cast<double>(st.pushes + st.failed_pushes);
      series_.add("spsc.failed_push_ratio",
                  attempts > 0 ? st.failed_pushes / attempts : 0.0);
      series_.add("spsc.pop_batches", static_cast<double>(st.pop_batches));
      series_.add("spsc.sleeps", static_cast<double>(st.sleeps));
      series_.add("spsc.max_occupancy", static_cast<double>(st.max_occupancy));
    } else if (e == Entry::kStream) {
      series_.add("io.bytes", static_cast<double>(st.io.bytes_read));
      series_.add("io.windows", static_cast<double>(st.io.windows));
      series_.add("io.stalls", static_cast<double>(st.io.io_stalls));
      series_.add("io.map_waits", static_cast<double>(st.io.map_waits));
      series_.add("io.carry_bytes", static_cast<double>(st.io.carry_bytes));
    }
  }

  // One closed-loop episode: `clients` threads, each submitting the next
  // job of the sequence and waiting on its future, until the episode's
  // job budget is spent.
  void episode() {
    std::vector<Job*> jobs(spec_.episode_jobs);
    for (Job*& j : jobs) j = mix_jobs_[sequence_->next()];
    std::vector<ServeOutcome> out(jobs.size());
    std::atomic<std::size_t> next{0};
    const double c0 = process_cpu_s();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < spec_.clients; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
          try {
            out[i] = jobs[i]->serve(*sched_, tracer_);
          } catch (const std::exception& ex) {
            out[i].ok = false;
            out[i].error = jobs[i]->name() + ": " + ex.what();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall = seconds_since(t0);
    series_.add("cpu_s.service",
                (process_cpu_s() - c0) / static_cast<double>(jobs.size()));
    round_wall_s_ += wall;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const ServeOutcome& o = out[i];
      ops_.note(1, o.ok ? 0 : 1, o.error);
      if (!o.ok) continue;
      ++round_jobs_;
      series_.add("latency_s", o.latency_s);
      series_.add("latency_s." + jobs[i]->name(), o.latency_s);
      series_.add("service.queued_ms", o.report.queued_seconds * 1e3);
      series_.add("service.run_ms", o.report.run_seconds * 1e3);
      series_.add("service.overhead_ms",
                  (o.latency_s - o.report.queued_seconds -
                   o.stats.timers.total()) * 1e3);
      ++service_leases_;
      if (o.report.warm_pools) ++service_warm_;
    }
  }

  // Drains the scheduler and checks that every core lease and pool set
  // came back before it shuts down.
  void finish() {
    if (sched_) finish_service();
    batch_->drop_runtimes();
  }

  void finish_service() {
    sched_->drain();
    const auto depot = sched_->depot().stats();
    const auto stats = sched_->stats();
    depot_built_ = depot.built;
    depot_reused_ = depot.reused;
    rejected_ = stats.rejected;
    shed_ = stats.shed;
    const bool leak = sched_->cores().available() != sched_->cores().total() ||
                      depot.leased != 0;
    ops_.note(1, leak ? 1 : 0, "service leaked a core lease or pool set");
    sched_.reset();
  }

  // ---- output ---------------------------------------------------------------

  std::map<std::string, std::pair<double, std::string>> end_to_end() const {
    std::map<std::string, std::pair<double, std::string>> m;
    m["job_s"] = {series_.median("job_s"), "s"};
    m["job_s.fused"] = {series_.median("job_s.fused"), "s"};
    m["job_s.atomic"] = {series_.median("job_s.atomic"), "s"};
    m["job_s.stream"] = {series_.median("job_s.stream"), "s"};
    m["cpu_s"] = {series_.median(serves() ? "cpu_s.service" : "cpu_s.ramr"),
                  "s"};
    const Summary lat = summarize(series_.get("latency_s"));
    m["latency_ms.p50"] = {lat.median * 1e3, "ms"};
    m["latency_ms.tail"] = {lat.tail * 1e3, "ms"};
    m["goodput_jps"] = {series_.median("goodput_jps"), "1/s"};
    m["setup_s"] = {series_.median("setup_s"), "s"};
    m["peak_rss_mb"] = {peak_rss_mb_, "MB"};
    return m;
  }

  std::map<std::string, std::pair<double, std::string>> per_layer(
      double reconcile_err) const {
    std::map<std::string, std::pair<double, std::string>> m;
    auto med = [&](const char* name, const char* unit) {
      m[name] = {series_.median(name), unit};
    };
    for (const char* n :
         {"spsc.pushes", "spsc.pop_batches", "spsc.sleeps",
          "spsc.max_occupancy", "sched.tasks", "sched.steals", "io.bytes",
          "io.windows", "io.stalls", "io.map_waits", "io.carry_bytes",
          "containers.distinct_keys"}) {
      med(n, "count");
    }
    med("spsc.failed_push_ratio", "ratio");
    for (const char* phase : {"split", "map_combine", "reduce", "merge"}) {
      for (const char* sfx : {"", ".fused", ".atomic", ".stream"}) {
        const std::string name = std::string("engine.") + phase + "_s" + sfx;
        m[name] = {series_.median(name), "s"};
      }
    }
    med("engine.outside_phases_s", "s");
    for (const char* n : {"service.queued_ms", "service.run_ms",
                          "service.overhead_ms"}) {
      med(n, "ms");
    }
    m["service.warm_ratio"] = {
        service_leases_ ? static_cast<double>(service_warm_) / service_leases_
                        : 0.0,
        "ratio"};
    m["service.depot_built"] = {static_cast<double>(depot_built_), "count"};
    m["service.depot_reused"] = {static_cast<double>(depot_reused_), "count"};
    m["service.rejected"] = {static_cast<double>(rejected_), "count"};
    m["service.shed"] = {static_cast<double>(shed_), "count"};

    // Span-derived layer costs: self times summed over all replays.
    const std::vector<Span> spans = tracer_.spans();
    const std::vector<std::int64_t> self = self_times(spans);
    std::map<std::string, std::vector<double>> dur;
    std::map<std::string, double> self_sum;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      dur[spans[i].name].push_back(spans[i].duration_ns() * 1e-9);
      self_sum[spans[i].name] += self[i] * 1e-9;
    }
    auto med_of = [&](const std::string& n) { return summarize(dur[n]).median; };
    m["apps.map_ns_per_byte"] = {
        replay_bytes_ ? self_sum["apps.map"] * 1e9 / replay_bytes_ : 0.0,
        "ns/B"};
    m["apps.emits_per_byte"] = {
        replay_bytes_ ? static_cast<double>(replay_emits_) / replay_bytes_
                      : 0.0,
        "1/B"};
    m["containers.combine_ns_per_emit"] = {
        replay_emits_ ? self_sum["containers.combine"] * 1e9 / replay_emits_
                      : 0.0,
        "ns"};
    m["sched.sort_s"] = {med_of("sched.sort"), "s"};
    m["replay.total_s"] = {med_of("replay"), "s"};
    m["spsc.ring_ns_per_elem"] = {med_of("spsc.ring") * 1e9 / kRingRecords,
                                  "ns"};
    m["host.steal_frac"] = {steal_frac_, "ratio"};
    m["host.load1"] = {load_end_, "load"};
    const double traced = series_.median("job_s");
    const double plain = series_.median("job_s.untraced");
    m["trace.overhead_frac"] = {plain > 0 ? traced / plain - 1.0 : 0.0,
                                "ratio"};
    m["trace.reconcile_err"] = {reconcile_err, "ratio"};
    return m;
  }

  void report() {
    double reconcile_err = 0.0;
    std::string trace_file;
    if (args_.trace) {
      const std::vector<Span> spans = tracer_.spans();
      reconcile_err = reconcile(spans);
      trace_file = args_.out_dir + "/trace-" + spec_.name + "-s" +
                   std::to_string(args_.seed) + ".json";
      std::ofstream out(trace_file);
      write_chrome_trace(out, spans);
    }
    const bool trace_ok = reconcile_err <= kReconcileTolerance;
    const bool correct = ops_.failed == 0 && trace_ok;

    const auto metrics =
        args_.trace ? per_layer(reconcile_err) : end_to_end();

    Json details;
    details.begin_object();
    details.key("perfbench").begin_object();
    details.key("commit").value(args_.commit);
    details.key("build_type").value(std::string(PERFBENCH_BUILD_TYPE));
    details.key("lib_build_type").value(args_.lib_build_type);
    details.key("isa").value(ramr::common::to_string(ramr::common::probe_isa()));
    details.key("nproc").value(
        static_cast<double>(std::thread::hardware_concurrency()));
    details.key("workload").value(spec_.name);
    details.key("seed").value(static_cast<double>(args_.seed));
    details.key("trace").value(args_.trace ? 1.0 : 0.0);
    details.key("seconds").value(args_.seconds);
    details.key("measured_s").value(measured_s_);
    details.end_object();
    details.key("host").begin_object();
    details.key("steal_frac").value(steal_frac_);
    details.key("load1_start").value(load_start_);
    details.key("load1_end").value(load_end_);
    details.end_object();
    details.key("ops").begin_object();
    details.key("attempted").value(static_cast<double>(ops_.attempted));
    details.key("failed").value(static_cast<double>(ops_.failed));
    details.key("errors").begin_array();
    for (const std::string& e : ops_.errors) details.value(e);
    details.end_array();
    details.end_object();
    if (args_.trace) {
      details.key("trace").begin_object();
      details.key("spans").value(static_cast<double>(tracer_.spans().size()));
      details.key("reconcile_err").value(reconcile_err);
      details.key("tolerance").value(kReconcileTolerance);
      details.key("file").value(trace_file);
      details.end_object();
    }
    details.key("timings").begin_object();
    for (const auto& [name, values] : series_.all()) {
      const Summary s = summarize(values);
      details.key(name).begin_object();
      details.key("n").value(static_cast<double>(s.n));
      details.key("median").value(s.median);
      details.key("p25").value(s.p25);
      details.key("p75").value(s.p75);
      if (s.tail_permille) {
        details.key("tail_pct").value(*s.tail_permille / 10.0);
        details.key("tail").value(s.tail);
      }
      details.end_object();
    }
    details.end_object();
    details.key("metrics");
    write_metrics(details, metrics);
    details.end_object();

    const std::string details_text = details.str();
    {
      std::ofstream out(args_.out_dir + "/" + spec_.name + "-s" +
                        std::to_string(args_.seed) + "-t" +
                        (args_.trace ? "1" : "0") + ".json");
      out << details_text << "\n";
    }
    std::printf("%s\n", details_text.c_str());

    Json result;
    result.begin_object();
    result.key("correct").value(correct);
    result.key("attempted").value(static_cast<double>(ops_.attempted));
    result.key("failed").value(static_cast<double>(ops_.failed));
    result.key("metrics");
    write_metrics(result, metrics);
    result.end_object();
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
  }

  static void write_metrics(
      Json& j,
      const std::map<std::string, std::pair<double, std::string>>& metrics) {
    j.begin_object();
    for (const auto& [name, vu] : metrics) {
      j.key(name).begin_object();
      j.key("value").value(vu.first);
      j.key("unit").value(vu.second);
      j.end_object();
    }
    j.end_object();
  }

  static constexpr Entry kEntries[] = {Entry::kRamr, Entry::kFused,
                                       Entry::kAtomic, Entry::kStream};
  static constexpr std::size_t kRingRecords = std::size_t{1} << 21;
  static constexpr std::size_t kSetupReps = 5;
  static constexpr std::size_t kMinRounds = 8;
  // Span self times are integer nanoseconds over strictly nested scopes, so
  // they reconcile exactly; the tolerance only absorbs a rounding slip.
  static constexpr double kReconcileTolerance = 1e-6;

  const Args& args_;
  const WorkloadSpec& spec_;
  Tracer tracer_;
  Tracer untraced_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  Job* batch_ = nullptr;
  std::vector<Job*> mix_jobs_;
  std::unique_ptr<JobSequence> sequence_;
  std::unique_ptr<ramr::service::Scheduler> sched_;
  Series series_;
  Ops ops_;
  double measured_s_ = 0.0;
  // This round's correct jobs and the time they took: the episode's wall
  // time, or the RAMR calls' time when the workload serves nothing.
  std::uint64_t round_jobs_ = 0;
  double round_wall_s_ = 0.0;
  std::uint64_t service_leases_ = 0;
  std::uint64_t service_warm_ = 0;
  std::uint64_t replay_bytes_ = 0;
  std::uint64_t replay_emits_ = 0;
  std::size_t depot_built_ = 0;
  std::size_t depot_reused_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  double steal_frac_ = 0.0;
  double load_start_ = 0.0;
  double load_end_ = 0.0;
  double peak_rss_mb_ = 0.0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // The benchmark measures library defaults in an optimized build.
  const std::vector<std::string> overrides = ramr_env_overrides();
  if (!overrides.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; the benchmark "
                 "measures library defaults\n",
                 overrides.front().c_str());
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" ||
      args.lib_build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to run a non-Release build "
                 "(benchmark: '%s', library: '%s')\n",
                 PERFBENCH_BUILD_TYPE, args.lib_build_type.c_str());
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    Bench bench(args, *spec);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
