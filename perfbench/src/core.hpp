// perfbench core: seeded op sequences, percentiles and the span recorder.
//
// Everything here is independent of the ATS libraries so the benchmark's
// own tests (tests/selftest.cpp) can check it against known vectors.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ seeded inputs

/// SplitMix64 stream; the benchmark's only source of randomness, so a seed
/// reproduces every generated input.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Seed of pass `pass` of a run seeded with `seed`.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass);

/// Fisher-Yates shuffle driven by `rng`.
template <class T>
void shuffle(std::vector<T>& v, Prng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// sweep: one pass runs every registry entry once, in seeded order.
std::vector<int> sweep_pass(std::uint64_t seed, std::size_t pass, int entries);

struct ReplayOp {
  int entry = 0;
  bool binary = false;
  bool operator==(const ReplayOp&) const = default;
};

/// replay: one pass loads every entry's trace once per format; formats
/// alternate from op to op (text first), entries are in seeded order.
std::vector<ReplayOp> replay_pass(std::uint64_t seed, std::size_t pass,
                                  int entries);

struct ServeOp {
  bool miss = false;
  /// Registry entry asked for.
  int entry = 0;
  /// Hits: hot-set cell index.  Misses: index of the miss within its pass.
  int cell = 0;
  bool operator==(const ServeOp&) const = default;
};

/// Number of requests in one serve pass.
std::size_t serve_pass_size(int entries, int variants);

/// serve: one pass asks every hot-set cell (entries x variants) three times
/// and adds one miss per three hits, `variants` misses per entry; each
/// group of four requests holds exactly one miss at a seeded position.
std::vector<ServeOp> serve_pass(std::uint64_t seed, std::size_t pass,
                                int entries, int variants);

/// A parameter value unique to `u` < 1e8: pads the fraction of the last
/// decimal number in `value` to six digits and appends u as eight more
/// ("0.05" -> "0.05000000000007" for u = 7), so the parsed value moves by
/// less than 1e-6 while the text, and with it the service's cache key, is
/// new.  Throws std::invalid_argument when
/// `value` does not end in a decimal number with a fraction.
std::string perturb(const std::string& value, std::uint64_t u);

// ----------------------------------------------------------- percentiles

/// Linear-interpolation percentile of an ascending vector (q in [0, 1]).
double percentile(const std::vector<double>& sorted, double q);

/// Samples of an n-sample run that rank strictly above the q-percentile's
/// position.
std::size_t samples_beyond(std::size_t n, double q);

/// Smallest run length that gives `beyond` samples beyond the q-percentile.
std::size_t min_samples(double q, std::size_t beyond);

/// Median of an unsorted vector (copied).
double median(std::vector<double> v);

// ----------------------------------------------------------------- spans

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Span names: one per layer boundary the benchmark times.
enum class Layer : std::uint8_t {
  kOp,          ///< one whole benchmark op
  kGen,         ///< gen::run_experiment + gen::experiment_csv
  kSimulate,    ///< gen::run_single_property
  kAnalyze,     ///< analyze::analyze
  kLoadText,    ///< trace::load_trace
  kLoadBinary,  ///< trace::load_trace_binary_file
  kReportCsv,   ///< report::severity_csv
  kReportXml,   ///< report::cube_xml
  kSnapshot,    ///< diff::Snapshot::from_result
  kCompare,     ///< diff::diff_snapshots
  kPing,        ///< service::Client::call, ping
  kHit,         ///< service::Client::call, served from the result cache
  kMiss,        ///< service::Client::call, simulated by the server
};

inline constexpr std::size_t kLayerCount = 13;

const char* to_string(Layer l);

struct Span {
  Layer layer = Layer::kOp;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::uint32_t op = 0;      ///< benchmark op the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t dur() const { return end_ns - start_ns; }
};

/// In-memory span log.  begin/end nest: a span begun while another is open
/// becomes its child.  Disabled recorders record nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// Opens a span; returns its index (or -1 when disabled).
  int begin(Layer layer);
  /// Closes the innermost open span, optionally renaming it (the service
  /// spans learn whether they were hits only after the call).
  void end(int index);
  void end(int index, Layer rename);

  const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated dump: index, layer, op, parent, start_ns, end_ns.
  std::string tsv() const;

 private:
  bool enabled_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanRecorder& rec, Layer layer) : rec_(rec), idx_(rec.begin(layer)) {}
  ~Scope() { rec_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int idx_;
};

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered_ns(std::int64_t lo, std::int64_t hi,
                        std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
