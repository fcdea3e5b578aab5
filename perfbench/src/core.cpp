#include "core.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t Prng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Prng::below(std::uint64_t bound) {
  // Rejection sampling keeps the draw unbiased.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % bound;
}

std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  Prng rng(seed ^ (0xa0761d6478bd642fULL * (pass + 1)));
  return rng.next();
}

std::vector<int> sweep_pass(std::uint64_t seed, std::size_t pass, int entries) {
  std::vector<int> order(static_cast<std::size_t>(entries));
  for (int i = 0; i < entries; ++i) order[static_cast<std::size_t>(i)] = i;
  Prng rng(pass_seed(seed, pass));
  shuffle(order, rng);
  return order;
}

std::vector<ReplayOp> replay_pass(std::uint64_t seed, std::size_t pass,
                                  int entries) {
  Prng rng(pass_seed(seed, pass));
  std::vector<int> text(static_cast<std::size_t>(entries));
  for (int i = 0; i < entries; ++i) text[static_cast<std::size_t>(i)] = i;
  std::vector<int> binary = text;
  shuffle(text, rng);
  shuffle(binary, rng);
  std::vector<ReplayOp> ops;
  ops.reserve(2 * text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    ops.push_back({text[i], false});
    ops.push_back({binary[i], true});
  }
  return ops;
}

std::size_t serve_pass_size(int entries, int variants) {
  return 4 * static_cast<std::size_t>(entries) *
         static_cast<std::size_t>(variants);
}

std::vector<ServeOp> serve_pass(std::uint64_t seed, std::size_t pass,
                                int entries, int variants) {
  Prng rng(pass_seed(seed, pass));
  const int hot = entries * variants;
  std::vector<ServeOp> hits;
  hits.reserve(3 * static_cast<std::size_t>(hot));
  for (int rep = 0; rep < 3; ++rep) {
    for (int c = 0; c < hot; ++c) hits.push_back({false, c / variants, c});
  }
  std::vector<int> miss_entries;
  miss_entries.reserve(static_cast<std::size_t>(hot));
  for (int e = 0; e < entries; ++e) {
    for (int v = 0; v < variants; ++v) miss_entries.push_back(e);
  }
  shuffle(hits, rng);
  shuffle(miss_entries, rng);

  std::vector<ServeOp> ops;
  ops.reserve(serve_pass_size(entries, variants));
  for (int g = 0; g < hot; ++g) {
    const auto at = rng.below(4);
    for (std::uint64_t k = 0, h = 0; k < 4; ++k) {
      if (k == at) {
        ops.push_back({true, miss_entries[static_cast<std::size_t>(g)], g});
      } else {
        ops.push_back(hits[3 * static_cast<std::size_t>(g) + h++]);
      }
    }
  }
  return ops;
}

std::string perturb(const std::string& value, std::uint64_t u) {
  const auto dot = value.rfind('.');
  const bool digits_after =
      dot != std::string::npos && dot + 1 < value.size() &&
      std::all_of(value.begin() + static_cast<std::ptrdiff_t>(dot) + 1,
                  value.end(), [](char c) { return c >= '0' && c <= '9'; });
  if (!digits_after || dot == 0 || value[dot - 1] < '0' || value[dot - 1] > '9' ||
      u >= 100000000ULL) {
    throw std::invalid_argument("perturb: cannot extend '" + value + "'");
  }
  std::string out = value;
  while (out.size() - dot - 1 < 6) out += '0';
  char tail[16];
  std::snprintf(tail, sizeof tail, "%08llu", static_cast<unsigned long long>(u));
  return out + tail;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto lo = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - lo;
}

std::size_t min_samples(double q, std::size_t beyond) {
  std::size_t n = beyond + 1;
  while (samples_beyond(n, q) < beyond) ++n;
  return n;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

const char* to_string(Layer l) {
  switch (l) {
    case Layer::kOp: return "op";
    case Layer::kGen: return "gen";
    case Layer::kSimulate: return "simulate";
    case Layer::kAnalyze: return "analyze";
    case Layer::kLoadText: return "trace.load_text";
    case Layer::kLoadBinary: return "trace.load_bin";
    case Layer::kReportCsv: return "report.csv";
    case Layer::kReportXml: return "report.xml";
    case Layer::kSnapshot: return "diff.snapshot";
    case Layer::kCompare: return "diff.compare";
    case Layer::kPing: return "service.ping";
    case Layer::kHit: return "service.hit";
    case Layer::kMiss: return "service.miss";
  }
  return "?";
}

int SpanRecorder::begin(Layer layer) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  const int idx = static_cast<int>(spans_.size());
  open_.push_back(idx);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return idx;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans an exception left open close with their parent.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
    spans_[static_cast<std::size_t>(top)].end_ns =
        spans_[static_cast<std::size_t>(index)].end_ns;
  }
}

void SpanRecorder::end(int index, Layer rename) {
  if (index < 0) return;
  end(index);
  spans_[static_cast<std::size_t>(index)].layer = rename;
}

std::string SpanRecorder::tsv() const {
  std::string out = "index\tlayer\top\tparent\tstart_ns\tend_ns\n";
  char line[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line, "%zu\t%s\t%u\t%d\t%lld\t%lld\n", i,
                  to_string(s.layer), s.op, s.parent,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += line;
  }
  return out;
}

std::int64_t covered_ns(
    std::int64_t lo, std::int64_t hi,
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;  // everything below `reach` is already counted
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].dur() -
              covered_ns(spans[i].start_ns, spans[i].end_ns,
                         std::move(children[i]));
  }
  return self;
}

}  // namespace perfbench
