// Self-tests of the benchmark's own statistics, trace and inputs:
//
//   python3 perfbench/run.py --self-test
//
// Expected quantiles were computed with Python's
// statistics.quantiles(data, n=4) (method "exclusive"), the same rule the
// spread of a metric across runs is judged by.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "apps/inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
        what + ": got " + std::to_string(got) + ", want " +
            std::to_string(want));
}

void test_quartiles_match_python() {
  using perfbench::summarize;
  const auto s10 = summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check_near(s10.p25, 2.75, "n=10 p25");
  check_near(s10.median, 5.5, "n=10 median");
  check_near(s10.p75, 8.25, "n=10 p75");
  // Two samples: Python clamps the index and extrapolates.
  const auto s2 = summarize({3.5, 1.0});
  check_near(s2.p25, 0.375, "n=2 p25");
  check_near(s2.median, 2.25, "n=2 median");
  check_near(s2.p75, 4.125, "n=2 p75");
  const auto s5 = summarize({5, 1, 4, 2, 3});
  check_near(s5.p25, 1.5, "n=5 p25");
  check_near(s5.median, 3.0, "n=5 median");
  check_near(s5.p75, 4.5, "n=5 p75");
  std::vector<double> sq;
  for (int i = 0; i < 37; ++i) sq.push_back(0.1 * i * i);
  const auto s37 = summarize(sq);
  check_near(s37.p25, 7.25, "n=37 p25");
  check_near(s37.median, 32.4, "n=37 median");
  check_near(s37.p75, 75.65, "n=37 p75");
  const auto s1 = summarize({4.0});
  check(s1.n == 1 && s1.median == 4.0 && s1.p25 == 4.0, "n=1 summary");
}

void test_tail_rule() {
  using perfbench::tail_rung_permille;
  // Fewer than 20 samples: not even the median has ten beyond it.
  check(!tail_rung_permille(0), "tail n=0");
  check(!tail_rung_permille(19), "tail n=19");
  check(tail_rung_permille(20) == 500u, "tail n=20 -> p50");
  check(tail_rung_permille(39) == 500u, "tail n=39 -> p50");
  check(tail_rung_permille(40) == 750u, "tail n=40 -> p75");
  check(tail_rung_permille(100) == 900u, "tail n=100 -> p90");
  check(tail_rung_permille(199) == 900u, "tail n=199 -> p90");
  check(tail_rung_permille(200) == 950u, "tail n=200 -> p95");
  check(tail_rung_permille(999) == 950u, "tail n=999 -> p95");
  check(tail_rung_permille(1000) == 990u, "tail n=1000 -> p99");
  check(tail_rung_permille(10000) == 999u, "tail n=10000 -> p99.9");
  check(tail_rung_permille(1000000) == 999u, "tail n=1e6 -> p99.9");
  // The tail value is the rung's quantile (Python: quantiles(1..200,
  // n=20)[-1] == 190.95).
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const auto s = perfbench::summarize(v);
  check(s.tail_permille == 950u, "n=200 summary rung");
  check_near(s.tail, 190.95, "n=200 p95");
  check(!perfbench::summarize({1, 2, 3}).tail_permille, "n=3 has no tail");
}

void test_inputs_are_seeded() {
  using ramr::apps::make_pixels;
  using ramr::apps::make_text;
  const auto h = [](const std::string& s) { return std::hash<std::string>{}(s); };
  check(make_text(1 << 16, 4096, 7) == make_text(1 << 16, 4096, 7),
        "same seed, same text");
  check(h(make_text(1 << 16, 4096, 7)) != h(make_text(1 << 16, 4096, 8)),
        "different seed, different text");
  check(make_pixels(1 << 16, 7) == make_pixels(1 << 16, 7),
        "same seed, same pixels");
  check(make_pixels(1 << 16, 7) != make_pixels(1 << 16, 8),
        "different seed, different pixels");
}

void test_span_self_times_reconcile() {
  using perfbench::Tracer;
  Tracer t(true);
  // job [0,100): runtime.run [10,70) with a nested child [20,30); check
  // [70,95). Self: job 15, runtime.run 50, inner 10, check 25 -> 100.
  const auto job = t.add("job", 0, 0, 100);
  const auto run = t.add("runtime.run", job, 10, 70);
  t.add("inner", run, 20, 30);
  t.add("check", job, 70, 95);
  // A second root with overlapping children: the union counts once.
  const auto r2 = t.add("replay", 0, 200, 300);
  t.add("a", r2, 210, 260);
  t.add("b", r2, 240, 280);
  const auto spans = t.spans();
  const auto self = perfbench::self_times(spans);
  check(self[0] == 15 && self[1] == 50 && self[2] == 10 && self[3] == 25,
        "nested self times");
  check(self[4] == 30, "overlapping children covered once");
  check(spans[2].root == job && spans[6].root == r2, "root ids propagate");
  // The overlap makes replay's tree sum exceed its duration by 20/100.
  check_near(perfbench::reconcile(spans), 0.2, "overlap reconcile error");

  // Live spans through the RAII scope nest strictly and reconcile exactly.
  Tracer live(true);
  for (int i = 0; i < 50; ++i) {
    perfbench::ScopedSpan a(live, "job");
    perfbench::ScopedSpan b(live, "runtime.run", a.id());
    perfbench::ScopedSpan c(live, "inner", b.id());
  }
  check(perfbench::reconcile(live.spans()) == 0.0, "live spans reconcile");

  Tracer off(false);
  check(off.begin("job") == 0 && off.spans().empty(), "disabled tracer");
}

}  // namespace

int main() {
  test_quartiles_match_python();
  test_tail_rule();
  test_inputs_are_seeded();
  test_span_self_times_reconcile();
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
