// The benchmark's own tests: steadiness guards and helper checks.
//
//   ctest --test-dir .bench_build     (or run perfbench_selftest directly)
//
// Exits 0 when every check holds; prints each failed check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <string>
#include <vector>

#include "core.hpp"
#include "gen/registry.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <class T>
std::vector<T> sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end(), [](const T& a, const T& b) {
    return std::tie(a.entry, a.binary) < std::tie(b.entry, b.binary);
  });
  return v;
}

void sequences() {
  using namespace perfbench;
  const int n = 29;

  // sweep: fixed length, deterministic, same multiset in another order.
  const auto s1 = sweep_pass(7, 0, n);
  check(s1.size() == static_cast<std::size_t>(n), "sweep pass has one op per entry");
  check(s1 == sweep_pass(7, 0, n), "sweep pass is deterministic");
  auto s2 = sweep_pass(8, 0, n);
  check(s2 != s1, "another seed reorders the sweep pass");
  check(sweep_pass(7, 1, n) != s1, "each sweep pass has its own order");
  std::sort(s2.begin(), s2.end());
  auto s1s = s1;
  std::sort(s1s.begin(), s1s.end());
  check(s1s == s2, "another seed keeps the sweep multiset");

  // replay: formats alternate; every (entry, format) once per pass.
  const auto r1 = replay_pass(7, 0, n);
  check(r1.size() == 2 * static_cast<std::size_t>(n), "replay pass has two ops per entry");
  check(r1 == replay_pass(7, 0, n), "replay pass is deterministic");
  const auto r2 = replay_pass(8, 0, n);
  check(r2 != r1, "another seed reorders the replay pass");
  bool alternate = true;
  for (std::size_t i = 0; i < r1.size(); ++i) alternate &= r1[i].binary == (i % 2 == 1);
  check(alternate, "replay formats alternate from op to op");
  struct Key {
    int entry;
    bool binary;
  };
  std::vector<Key> k1, k2;
  for (const auto& o : r1) k1.push_back({o.entry, o.binary});
  for (const auto& o : r2) k2.push_back({o.entry, o.binary});
  k1 = sorted(k1);
  k2 = sorted(k2);
  bool same = k1.size() == k2.size();
  for (std::size_t i = 0; same && i < k1.size(); ++i) {
    same = k1[i].entry == k2[i].entry && k1[i].binary == k2[i].binary;
  }
  check(same, "another seed keeps the replay multiset");
  std::set<std::pair<int, bool>> distinct;
  for (const auto& k : k1) distinct.insert({k.entry, k.binary});
  check(distinct.size() == k1.size(), "replay pass holds each (entry, format) once");

  // serve: one miss per group of four, each hot cell asked three times,
  // each entry missed `variants` times.
  const int variants = 8;
  const auto v1 = serve_pass(7, 0, n, variants);
  check(v1.size() == serve_pass_size(n, variants), "serve pass has its fixed length");
  check(v1 == serve_pass(7, 0, n, variants), "serve pass is deterministic");
  const auto v2 = serve_pass(8, 0, n, variants);
  check(v2 != v1, "another seed reorders the serve pass");
  bool one_per_group = true;
  for (std::size_t g = 0; g + 4 <= v1.size(); g += 4) {
    one_per_group &= std::count_if(v1.begin() + static_cast<long>(g),
                                   v1.begin() + static_cast<long>(g) + 4,
                                   [](const ServeOp& o) { return o.miss; }) == 1;
  }
  check(one_per_group, "each group of four serve requests holds one miss");
  auto tally = [&](const std::vector<ServeOp>& ops) {
    std::map<std::pair<bool, int>, int> t;  // hits by cell, misses by entry
    std::set<int> miss_cells;
    for (const auto& o : ops) {
      ++t[{o.miss, o.miss ? o.entry : o.cell}];
      if (o.miss) miss_cells.insert(o.cell);
      if (!o.miss && o.entry != o.cell / variants) return std::map<std::pair<bool, int>, int>{};
    }
    if (miss_cells.size() != static_cast<std::size_t>(n * variants)) return std::map<std::pair<bool, int>, int>{};
    return t;
  };
  const auto t1 = tally(v1);
  check(!t1.empty() && t1 == tally(v2), "another seed keeps the serve multiset");
  bool counts = !t1.empty();
  for (const auto& [key, c] : t1) counts &= c == (key.first ? variants : 3);
  check(counts, "hot cells are asked 3 times and entries missed 8 times per pass");
}

void percentiles() {
  using namespace perfbench;
  // Known vectors (linear interpolation between closest ranks, as numpy's
  // default and Python's statistics.quantiles(method="inclusive")).
  const std::vector<double> v = {1, 2, 3, 4};
  check(near(percentile(v, 0.5), 2.5), "p50 of 1..4 is 2.5");
  check(near(percentile(v, 0.9), 3.7), "p90 of 1..4 is 3.7");
  check(near(percentile(v, 0.0), 1) && near(percentile(v, 1.0), 4), "p0/p100 are the extremes");
  check(near(percentile({5}, 0.9), 5), "percentile of one sample is that sample");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(percentile(hundred, 0.9), 90.1), "p90 of 1..100 is 90.1");
  check(near(median({3, 1, 2}), 2), "median sorts its input");
  bool threw = false;
  try {
    percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of no samples throws");

  // No percentile from too few samples beyond it.
  check(samples_beyond(1000, 0.9) == 100, "1000 samples give 100 beyond p90");
  check(samples_beyond(991, 0.9) == 99, "991 samples give 99 beyond p90");
  check(min_samples(0.9, 100) == 992, "p90 needs 992 samples for 100 beyond it");
  check(samples_beyond(min_samples(0.5, 100), 0.5) >= 100, "min_samples covers p50");
}

void spans() {
  using namespace perfbench;
  check(covered_ns(0, 100, {{10, 30}, {20, 50}, {60, 70}}) == 50,
        "overlapping children are counted once");
  check(covered_ns(0, 100, {{90, 120}, {-5, 5}}) == 15, "children are clipped to the parent");
  check(covered_ns(0, 100, {}) == 0, "no children cover nothing");

  // parent [0,100] > child [10,40] > grandchild [20,30]; child [50,60].
  std::vector<Span> s(4);
  s[0] = {Layer::kOp, -1, 0, 0, 100};
  s[1] = {Layer::kAnalyze, 0, 0, 10, 40};
  s[2] = {Layer::kReportCsv, 1, 0, 20, 30};
  s[3] = {Layer::kReportXml, 0, 0, 50, 60};
  const auto self = self_times(s);
  check(self.size() == 4 && self[0] == 60 && self[1] == 20 && self[2] == 10 && self[3] == 10,
        "self time is duration minus child coverage");

  SpanRecorder rec(true);
  rec.set_op(3);
  const int outer = rec.begin(Layer::kOp);
  { Scope inner(rec, Layer::kAnalyze); }
  const int call = rec.begin(Layer::kHit);
  rec.end(call, Layer::kMiss);
  rec.end(outer);
  check(rec.spans().size() == 3 && rec.spans()[1].parent == outer &&
            rec.spans()[2].layer == Layer::kMiss && rec.spans()[2].op == 3,
        "recorder nests spans and renames on end");
  SpanRecorder off(false);
  check(off.begin(Layer::kOp) == -1 && off.spans().empty(), "disabled recorder records nothing");
}

void perturbation() {
  using perfbench::perturb;
  check(perturb("0.05", 7) == "0.05000000000007", "perturb pads and appends");
  check(perturb("linear:low=0.01,high=0.06", 7) == "linear:low=0.01,high=0.06000000000007",
        "perturb extends the last number");
  check(perturb("0.05", 7) != perturb("0.05", 8), "perturb is unique per index");
  check(std::fabs(std::stod(perturb("0.05", 99999999)) - 0.05) < 1e-6,
        "perturb moves the value by less than 1e-6");
  int threw = 0;
  for (const char* bad : {"0", "4", "x.", ".5"}) {
    try {
      perturb(bad, 1);
    } catch (const std::invalid_argument&) {
      ++threw;
    }
  }
  check(threw == 4, "perturb rejects values without a decimal fraction");
}

void corpus_sizes() {
  // The replay median must not sit on a boundary between two trace size
  // classes: the ops ranked around the median of a pass load traces of
  // about the same size (events within 25% of the median op's).
  const auto& reg = ats::gen::Registry::instance();
  std::vector<double> events;
  for (const auto& name : reg.names()) {
    const auto& def = reg.find(name);
    ats::gen::RunConfig cfg;
    cfg.nprocs = perfbench::replay_np(def.uses_openmp);
    const auto n = static_cast<double>(
        ats::gen::run_single_property(def, def.positive, cfg).event_count());
    events.push_back(n);  // one text and one binary op per entry
    events.push_back(n);
  }
  std::sort(events.begin(), events.end());
  const double mid = perfbench::percentile(events, 0.5);
  const std::size_t band = events.size() / 10;
  const std::size_t m = events.size() / 2;
  check(events[m - band] >= 0.75 * mid && events[m + band] <= 1.25 * mid,
        "replay ops around the median load traces of one size class");
}

}  // namespace

int main() {
  sequences();
  percentiles();
  spans();
  perturbation();
  corpus_sizes();
  std::printf("%s (%d failed)\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
