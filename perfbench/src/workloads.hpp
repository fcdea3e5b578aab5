// The three perfbench workloads and the measurement loop that drives them.
//
//   sweep   parameter-study user: gen::run_experiment over np, per entry
//   replay  trace_analyze user: load a stored trace, analyze, render, diff
//   serve   daemon user: cache hits and misses against service::Server
//
// README.md in this directory explains why each exists and which per-layer
// metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run (trace corpus, service socket); the
  /// caller removes it.
  std::string work_dir;
  /// Where the traced run writes its span log; empty = not written.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One-line JSON object with sample counts (context, not metrics).
  std::string samples;
};

/// Ranks of a replay corpus trace: 256, or 64 for OpenMP entries, whose
/// four-thread teams give the same 256 locations.  One size keeps the
/// median off a boundary between two size classes.
int replay_np(bool uses_openmp);

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

/// Sets up the workload, measures it, checks every op.  Throws on a
/// set-up failure or when the run cannot give enough samples.
Report run_workload(const Options& opt);

}  // namespace perfbench
