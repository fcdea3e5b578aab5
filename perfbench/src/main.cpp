// perfbench: one command for the ATS benchmark.
//
//   perfbench --workload sweep|replay|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR [--git-sha SHA] [--spans-out FILE]
//
// Prints a host record, the sample counts, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core.hpp"
#include "workloads.hpp"

namespace {

using perfbench::now_ns;

/// Wall time for `threads` threads each spinning the same fixed work at
/// once.  Against one thread this shows how much parallel capacity the
/// host really gives at the moment of the run.
double spin_ms(unsigned threads) {
  auto spin = [] {
    volatile std::uint64_t x = 1;
    for (int i = 0; i < 30'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  };
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (auto& t : pool) t.join();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_host(const std::string& git_sha) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  const double one = spin_ms(1);
  const double all = spin_ms(n);
  std::printf(
      "host {\"build_type\": \"%s\", \"compiler\": \"%s\", \"git_sha\": \"%s\", "
      "\"nproc\": %u, \"spin_ms_1\": %.3f, \"spin_ms_nproc\": %.3f, "
      "\"effective_cpus\": %.3f}\n",
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(git_sha).c_str(), n, one, all, n * one / all);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sweep|replay|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--git-sha SHA] [--spans-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to report from an unoptimised build\n");
  return 3;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 build_type.c_str());
    return 3;
  }

  perfbench::Options opt;
  std::string git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0 && opt.seconds <= 60;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else if (a == "--spans-out") {
      opt.spans_out = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return usage("--workload must be sweep, replay or serve");
  }
  if (!have_seed || !have_seconds || !have_trace || opt.work_dir.empty()) {
    return usage("--seed, --seconds (0 < S <= 60), --trace and --work-dir are required");
  }

  try {
    print_host(git_sha);
    const perfbench::Report rep = perfbench::run_workload(opt);
    std::printf("samples %s\n", rep.samples.c_str());
    std::string metrics;
    for (const auto& m : rep.metrics) {
      if (!std::isfinite(m.value)) {
        throw std::runtime_error("metric " + m.name + " is not finite");
      }
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                rep.correct && rep.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
