#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "analyzer/analyzer.hpp"
#include "core.hpp"
#include "diff/diff.hpp"
#include "gen/experiment.hpp"
#include "gen/registry.hpp"
#include "report/cube_view.hpp"
#include "report/cube_xml.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "trace/trace_binary.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using ats::gen::PropertyDef;
using ats::gen::Registry;

namespace {

/// Fresh set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Each run gives at least this many samples beyond its p90.
constexpr std::size_t kMinBeyondP90 = 100;

/// Work counters the traced run turns into per-layer ratios.
struct Counters {
  double sim_events = 0, analyze_events = 0;
  double text_events = 0, bin_events = 0, text_bytes = 0, bin_bytes = 0;
  double report_rows = 0, report_calls = 0;
  double snapshot_cells = 0, compare_cells = 0;
  double hits = 0, misses = 0, simulations = 0;
  double journal_bytes = 0, write_bytes_per_op = 0;
};

std::uint64_t hash_text(const std::string& s) {
  return std::hash<std::string_view>{}(s);
}

std::size_t count_rows(const std::string& csv) {
  // One header line, then one line per row.
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  return lines == 0 ? 0 : lines - 1;
}

const PropertyDef& entry_def(const std::vector<std::string>& names, int e) {
  return Registry::instance().find(names[static_cast<std::size_t>(e)]);
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// Generates pass `pass`'s op sequence; returns its length.
  virtual std::size_t begin_pass(std::size_t pass) = 0;
  /// Runs op `i` of the current pass; true when its output checks out.
  virtual bool run_op(std::size_t i, SpanRecorder& rec) = 0;
  /// End-of-run checks over the whole run.
  virtual bool finish() { return true; }
  /// Traced run: issued after the traced loop, outside any op.
  virtual void probe(SpanRecorder&) {}
  /// sweep: the traced run re-issues each op's cells as separate
  /// simulate + analyze calls after the op's gen span.
  virtual bool shadow_cells() const { return false; }

  Counters ctr;

 protected:
  std::vector<std::string> names_ = Registry::instance().names();
};

// ------------------------------------------------------------------ sweep

class Sweep : public Workload {
 public:
  explicit Sweep(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    plans_.clear();
    ref_csv_.clear();
    for (const std::string& name : names_) {
      const PropertyDef& def = Registry::instance().find(name);
      ats::gen::ExperimentPlan plan;
      plan.property = name;
      plan.base = def.positive;
      plan.axis = {"np", {"8", "16", "32", "64"}};
      plan.jobs = 1;
      const auto rows = ats::gen::run_experiment(plan);
      if (!rows_ok(def, rows)) {
        throw std::runtime_error("sweep warm-up: '" + name +
                                 "' failed or misdetected");
      }
      ref_csv_.push_back(ats::gen::experiment_csv(plan, rows));
      plans_.push_back(std::move(plan));
    }
  }

  std::size_t begin_pass(std::size_t pass) override {
    order_ = sweep_pass(seed_, pass, static_cast<int>(names_.size()));
    return order_.size();
  }

  bool run_op(std::size_t i, SpanRecorder& rec) override {
    const int e = order_[i];
    const auto& plan = plans_[static_cast<std::size_t>(e)];
    const PropertyDef& def = entry_def(names_, e);
    std::vector<ats::gen::ExperimentRow> rows;
    std::string csv;
    {
      Scope s(rec, Layer::kGen);
      rows = ats::gen::run_experiment(plan);
      csv = ats::gen::experiment_csv(plan, rows);
    }
    bool ok = rows_ok(def, rows) && csv == ref_csv_[static_cast<std::size_t>(e)];
    if (rec.enabled()) ok = shadow(plan, def, rows, rec) && ok;
    return ok;
  }

  bool shadow_cells() const override { return true; }

 private:
  static bool rows_ok(const PropertyDef& def,
                      const std::vector<ats::gen::ExperimentRow>& rows) {
    return rows.size() == 4 &&
           std::all_of(rows.begin(), rows.end(), [&](const auto& r) {
             return r.outcome == ats::gen::RunOutcome::kOk &&
                    r.detected == def.expected.has_value();
           });
  }

  /// The gen span hides simulate and analyze; issue them separately for
  /// the same cells so gen's own share is the difference.
  bool shadow(const ats::gen::ExperimentPlan& plan, const PropertyDef& def,
              const std::vector<ats::gen::ExperimentRow>& rows,
              SpanRecorder& rec) {
    bool ok = true;
    for (std::size_t k = 0; k < plan.axis.values.size(); ++k) {
      ats::gen::RunConfig cfg = plan.config;
      cfg.nprocs = std::stoi(plan.axis.values[k]);
      ats::trace::Trace tr;
      {
        Scope s(rec, Layer::kSimulate);
        tr = ats::gen::run_single_property(def, plan.base, cfg);
      }
      std::optional<ats::analyze::AnalysisResult> res;
      {
        Scope s(rec, Layer::kAnalyze);
        res.emplace(ats::analyze::analyze(tr, plan.analyzer));
      }
      const auto events = static_cast<double>(tr.event_count());
      ctr.sim_events += events;
      ctr.analyze_events += events;
      ok = ok && res->total_time == rows[k].total_time;
    }
    return ok;
  }

  std::uint64_t seed_;
  std::vector<ats::gen::ExperimentPlan> plans_;
  std::vector<std::string> ref_csv_;
  std::vector<int> order_;
};

// ----------------------------------------------------------------- replay

class Replay : public Workload {
 public:
  Replay(std::uint64_t seed, std::string dir) : seed_(seed), dir_(std::move(dir)) {}

  void setup() override {
    fs::create_directories(dir_);
    corpus_.clear();
    for (const std::string& name : names_) {
      const PropertyDef& def = Registry::instance().find(name);
      ats::gen::RunConfig cfg;
      cfg.nprocs = replay_np(def.uses_openmp);
      const auto tr = ats::gen::run_single_property(def, def.positive, cfg);
      Stored s;
      s.text_path = dir_ + "/" + name + ".atstrace";
      s.bin_path = dir_ + "/" + name + ".atsb";
      {
        std::ofstream t(s.text_path, std::ios::binary);
        tr.save(t);
        std::ofstream b(s.bin_path, std::ios::binary);
        tr.save_binary(b);
        if (!t || !b) throw std::runtime_error("replay: cannot write " + dir_);
      }
      const auto res = ats::analyze::analyze(tr);
      s.ref = ats::diff::Snapshot::from_result(res, tr);
      const std::string csv = ats::report::severity_csv(res, tr);
      s.csv_hash = hash_text(csv);
      s.xml_hash = hash_text(ats::report::cube_xml(res, tr));
      s.rows = static_cast<double>(count_rows(csv));
      s.events = static_cast<double>(tr.event_count());
      s.text_bytes = static_cast<double>(fs::file_size(s.text_path));
      s.bin_bytes = static_cast<double>(fs::file_size(s.bin_path));
      corpus_.push_back(std::move(s));
    }
  }

  std::size_t begin_pass(std::size_t pass) override {
    ops_ = replay_pass(seed_, pass, static_cast<int>(names_.size()));
    return ops_.size();
  }

  bool run_op(std::size_t i, SpanRecorder& rec) override {
    const ReplayOp op = ops_[i];
    const Stored& s = corpus_[static_cast<std::size_t>(op.entry)];
    ats::trace::LoadResult lr;
    {
      Scope sc(rec, op.binary ? Layer::kLoadBinary : Layer::kLoadText);
      if (op.binary) {
        lr = ats::trace::load_trace_binary_file(s.bin_path);
      } else {
        std::ifstream f(s.text_path, std::ios::binary);
        lr = ats::trace::load_trace(f);
      }
    }
    std::optional<ats::analyze::AnalysisResult> res;
    {
      Scope sc(rec, Layer::kAnalyze);
      res.emplace(ats::analyze::analyze(lr.trace));
    }
    std::string csv, xml;
    {
      Scope sc(rec, Layer::kReportCsv);
      csv = ats::report::severity_csv(*res, lr.trace);
    }
    {
      Scope sc(rec, Layer::kReportXml);
      xml = ats::report::cube_xml(*res, lr.trace);
    }
    ats::diff::Snapshot snap;
    {
      Scope sc(rec, Layer::kSnapshot);
      snap = ats::diff::Snapshot::from_result(*res, lr.trace);
    }
    ats::diff::DiffResult d;
    {
      Scope sc(rec, Layer::kCompare);
      d = ats::diff::diff_snapshots(s.ref, snap);
    }
    if (rec.enabled()) {
      (op.binary ? ctr.bin_events : ctr.text_events) += s.events;
      (op.binary ? ctr.bin_bytes : ctr.text_bytes) +=
          op.binary ? s.bin_bytes : s.text_bytes;
      ctr.analyze_events += s.events;
      ctr.report_rows += s.rows;
      ctr.report_calls += 1;
      ctr.snapshot_cells += static_cast<double>(snap.cells.size());
      ctr.compare_cells += static_cast<double>(d.cells_compared);
    }
    return lr.ok() && lr.diagnostics.empty() && d.empty() &&
           hash_text(csv) == s.csv_hash && hash_text(xml) == s.xml_hash;
  }

 private:
  struct Stored {
    std::string text_path, bin_path;
    ats::diff::Snapshot ref;
    std::uint64_t csv_hash = 0, xml_hash = 0;
    double rows = 0, events = 0, text_bytes = 0, bin_bytes = 0;
  };

  std::uint64_t seed_;
  std::string dir_;
  std::vector<Stored> corpus_;
  std::vector<ReplayOp> ops_;
};

// ------------------------------------------------------------------ serve

class Serve : public Workload {
 public:
  /// Hot-set cells per registry entry (and misses per entry per pass).
  static constexpr int kVariants = 8;
  static constexpr int kNp = 16;
  static constexpr int kPings = 500;
  /// First parameter index of the journal probe's misses, clear of the
  /// timed run's.
  static constexpr int kJournalCells = 90'000'000;

  Serve(std::uint64_t seed, std::string dir) : seed_(seed), dir_(std::move(dir)) {
    for (const std::string& name : names_) {
      expected_.push_back(Registry::instance().find(name).expected.has_value());
    }
  }

  void setup() override {
    fs::create_directories(dir_);
    ats::service::ServerOptions o;
    o.socket_path = dir_ + "/ats.sock";
    o.workers = 1;
    server_ = std::make_unique<ats::service::Server>(o);
    server_->start();
    client_ = std::make_unique<ats::service::Client>(o.socket_path);

    hot_lines_.clear();
    first_.clear();
    for (int c = 0; c < hot(); ++c) {
      hot_lines_.push_back(line(c / kVariants, static_cast<std::uint64_t>(c)));
      const auto r = client_->call(hot_lines_.back());
      if (!answer_ok(r, c / kVariants, false)) {
        throw std::runtime_error("serve warm-up: " + r.first_line);
      }
      first_.push_back(as_hit(r.first_line));
    }
    warm_simulations_ = server_->counters().simulations;
    if (warm_simulations_ != static_cast<std::uint64_t>(hot())) {
      throw std::runtime_error("serve warm-up: unexpected simulation count");
    }
  }

  std::size_t begin_pass(std::size_t pass) override {
    pass_ = pass;
    ops_ = serve_pass(seed_, pass, static_cast<int>(names_.size()), kVariants);
    return ops_.size();
  }

  bool run_op(std::size_t i, SpanRecorder& rec) override {
    const ServeOp op = ops_[i];
    const std::string req =
        op.miss ? line(op.entry, static_cast<std::uint64_t>(hot()) *
                                     (pass_ + 1) +
                                     static_cast<std::uint64_t>(op.cell))
                : hot_lines_[static_cast<std::size_t>(op.cell)];
    ats::service::ResultCache::Stats before{};
    if (rec.enabled()) before = server_->cache_stats();
    const int span = rec.begin(Layer::kHit);
    const auto r = client_->call(req);
    bool ok = true;
    if (rec.enabled()) {
      const auto after = server_->cache_stats();
      const bool was_hit = after.hits > before.hits;
      const bool was_miss = after.misses > before.misses;
      rec.end(span, was_miss ? Layer::kMiss : Layer::kHit);
      ok = was_hit != was_miss && was_miss == op.miss;
      ctr.hits += was_hit ? 1 : 0;
      ctr.misses += was_miss ? 1 : 0;
    }
    misses_sent_ += op.miss ? 1 : 0;
    return ok && (op.miss ? answer_ok(r, op.entry, false)
                          : r.first_line == first_[static_cast<std::size_t>(op.cell)]);
  }

  bool finish() override {
    const auto c = server_->counters();
    ctr.simulations = static_cast<double>(c.simulations - warm_simulations_);
    return c.simulations == warm_simulations_ + misses_sent_ && c.shed == 0 &&
           probe_ok_;
  }

  void probe(SpanRecorder& rec) override {
    for (int k = 0; k < kPings; ++k) {
      Scope s(rec, Layer::kPing);
      client_->call("ping");
    }
    journal_probe();
  }

 private:
  int hot() const { return static_cast<int>(names_.size()) * kVariants; }

  /// The timed server keeps its state in memory: the benchmark writes only
  /// inside its checkout, where fsync latency varies too much to time.  A
  /// second server with journals on replays a small hit/miss mix instead,
  /// untimed, for the journal layer's byte counts.
  void journal_probe() {
    ats::service::ServerOptions o;
    o.socket_path = dir_ + "/journal.sock";
    o.state_dir = dir_ + "/state";
    o.workers = 1;
    ats::service::Server server(o);
    server.start();
    ats::service::Client client(o.socket_path);
    const int n = std::min(16, static_cast<int>(names_.size()));
    auto hot_line = [&](int k) { return hot_lines_[static_cast<std::size_t>(k * kVariants)]; };
    for (int k = 0; k < n; ++k) probe_ok_ = answer_ok(client.call(hot_line(k)), k, false) && probe_ok_;
    const double w0 = written_bytes();
    int requests = 0;
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < n; ++k, ++requests) {
        // One miss per four requests, as in the timed mix.
        const bool miss = (k + round) % 4 == 0;
        const auto u = static_cast<std::uint64_t>(kJournalCells + round * n + k);
        const auto r = client.call(miss ? line(k, u) : hot_line(k));
        probe_ok_ = answer_ok(r, k, !miss) && probe_ok_;
      }
    }
    ctr.write_bytes_per_op = (written_bytes() - w0) / requests;
    for (const auto& f : fs::directory_iterator(o.state_dir)) {
      if (f.is_regular_file()) ctr.journal_bytes += static_cast<double>(f.file_size());
    }
  }

  /// Bytes this process has passed to write(2) so far (journal rewrites
  /// plus a few hundred protocol bytes per request); 0 where /proc/self/io
  /// is unreadable.
  static double written_bytes() {
    std::ifstream io("/proc/self/io");
    std::string key;
    double value = 0;
    while (io >> key >> value) {
      if (key == "wchar:") return value;
    }
    return 0;
  }

  /// Analyze request for entry `e`'s positive configuration with one
  /// parameter made unique to `u`.
  std::string line(int e, std::uint64_t u) const {
    const PropertyDef& def = entry_def(names_, e);
    std::string out = "analyze prop=" + def.name + " np=" + std::to_string(kNp);
    bool perturbed = false;
    for (const std::string& k : def.positive.keys()) {
      std::string v = def.positive.get_raw(k, "");
      if (!perturbed) {
        try {
          v = perturb(v, u);
          perturbed = true;
        } catch (const std::invalid_argument&) {
        }
      }
      out += " " + k + "=" + v;
    }
    if (!perturbed) {
      throw std::runtime_error("serve: no decimal parameter in '" + def.name + "'");
    }
    return out;
  }

  bool answer_ok(const ats::service::Response& r, int e, bool cached) const {
    return r.status == ats::service::Status::kOk &&
           r.get("outcome") == "ok" && r.get("cached") == (cached ? "1" : "0") &&
           (r.get("detected") == "1") == expected_[static_cast<std::size_t>(e)];
  }

  /// A cell's first answer as a hit must repeat it: the same line with
  /// cached=1.
  static std::string as_hit(std::string first_line) {
    const auto at = first_line.find(" cached=0");
    if (at == std::string::npos) throw std::runtime_error("serve: " + first_line);
    first_line[at + 8] = '1';
    return first_line;
  }

  std::uint64_t seed_;
  std::string dir_;
  std::unique_ptr<ats::service::Server> server_;
  std::unique_ptr<ats::service::Client> client_;  // closes before server_ stops
  std::vector<std::string> hot_lines_;
  std::vector<std::string> first_;
  /// Per entry: whether its positive configuration must be detected.
  std::vector<bool> expected_;
  std::uint64_t warm_simulations_ = 0;
  std::uint64_t misses_sent_ = 0;
  std::size_t pass_ = 0;
  std::vector<ServeOp> ops_;
  bool probe_ok_ = true;
};

std::unique_ptr<Workload> make(const Options& opt, int setup_index) {
  const std::string dir =
      opt.work_dir + "/" + opt.workload + "-" + std::to_string(setup_index);
  if (opt.workload == "sweep") return std::make_unique<Sweep>(opt.seed);
  if (opt.workload == "replay") return std::make_unique<Replay>(opt.seed, dir);
  if (opt.workload == "serve") return std::make_unique<Serve>(opt.seed, dir);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

// --------------------------------------------------------- measurement loop

struct Loop {
  std::vector<double> lat_ms;
  double wall_s = 0;
  std::size_t passes = 0;
  std::uint64_t failed = 0;
};

/// Moves every thread of the process to the next CPU it may use, one CPU
/// per pass, and restores their affinity when destroyed.  On a shared
/// virtual host each vCPU's speed drifts on its own over seconds, so a run
/// left on one vCPU reads that vCPU's phase; rotating makes every run sample
/// them all.  The service's threads move with the client, so a request
/// wakes threads on one CPU rather than across vCPUs.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) set_all(saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    set_all(one);
  }

 private:
  static void set_all(const cpu_set_t& mask) {
    std::error_code ec;
    for (const auto& t : fs::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = static_cast<pid_t>(std::stol(t.path().filename().string()));
      sched_setaffinity(tid, sizeof mask, &mask);  // a thread may have exited
    }
  }

  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Runs whole passes until `seconds` have passed and at least `min_ops`
/// ops were timed.  Pass numbers continue from `*next_pass`.
Loop run_loop(Workload& w, double seconds, std::size_t min_ops,
              SpanRecorder& rec, std::size_t* next_pass) {
  // A run must end well within its time limit, enough samples or not.
  const double cap_s = seconds + 60.0;
  Loop out;
  CpuRotation cpus;
  const std::int64_t t_start = now_ns();
  std::uint32_t op_id = static_cast<std::uint32_t>(rec.spans().size());
  for (;;) {
    cpus.next();
    const std::size_t n = w.begin_pass((*next_pass)++);
    for (std::size_t i = 0; i < n; ++i) {
      rec.set_op(op_id++);
      const int span = rec.begin(Layer::kOp);
      const std::int64_t t0 = now_ns();
      bool ok = false;
      try {
        ok = w.run_op(i, rec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: op failed: %s\n", e.what());
      }
      const std::int64_t t1 = now_ns();
      rec.end(span);
      out.lat_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      if (!ok) ++out.failed;
    }
    ++out.passes;
    const double elapsed = static_cast<double>(now_ns() - t_start) / 1e9;
    if ((elapsed >= seconds && out.lat_ms.size() >= min_ops) || elapsed >= cap_s) {
      out.wall_s = elapsed;
      return out;
    }
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string samples_json(const Options& opt, const Loop& l, int setups) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"setups\": %d, "
                "\"passes\": %zu, \"samples\": %zu, \"beyond_p50\": %zu, "
                "\"beyond_p90\": %zu}",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                setups, l.passes, l.lat_ms.size(),
                samples_beyond(l.lat_ms.size(), 0.5),
                samples_beyond(l.lat_ms.size(), 0.9));
  return buf;
}

/// Per-layer metrics of a traced loop.  `untraced_op_ms` is the mean op
/// time of the untraced loop run just before, for the tracing overhead.
std::vector<Metric> layer_metrics(const Workload& w, const SpanRecorder& rec,
                                  double untraced_op_ms) {
  const auto& spans = rec.spans();
  const auto self = self_times(spans);
  std::array<double, kLayerCount> self_ns{}, dur_ns{};
  std::array<std::vector<double>, kLayerCount> durs;
  double ops = 0, op_ns = 0, covered = 0, shadow_ns = 0;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto l = static_cast<std::size_t>(s.layer);
    self_ns[l] += static_cast<double>(self[i]);
    dur_ns[l] += static_cast<double>(s.dur());
    durs[l].push_back(static_cast<double>(s.dur()) / 1e6);
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      const bool shadow = w.shadow_cells() &&
                          (s.layer == Layer::kSimulate || s.layer == Layer::kAnalyze);
      if (shadow) shadow_ns += static_cast<double>(s.dur());
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer != Layer::kOp) continue;
    ops += 1;
    op_ns += static_cast<double>(spans[i].dur());
    covered += static_cast<double>(
        covered_ns(spans[i].start_ns, spans[i].end_ns, kids[i]));
  }
  auto L = [](Layer l) { return static_cast<std::size_t>(l); };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto med = [](const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); };
  const Counters& c = w.ctr;

  // sweep's gen span is the op as the untraced run does it; its shadow
  // calls split it into simulate, analyze and gen's own remainder.
  const double gen_self = self_ns[L(Layer::kGen)] - shadow_ns;
  const double work_ns = w.shadow_cells() ? dur_ns[L(Layer::kGen)] : op_ns;
  const double real_op_ns = op_ns - shadow_ns;
  const double trace_ns = self_ns[L(Layer::kLoadText)] + self_ns[L(Layer::kLoadBinary)];
  const double report_ns = self_ns[L(Layer::kReportCsv)] + self_ns[L(Layer::kReportXml)];
  const double diff_ns = self_ns[L(Layer::kSnapshot)] + self_ns[L(Layer::kCompare)];
  const double service_ns = self_ns[L(Layer::kHit)] + self_ns[L(Layer::kMiss)];
  const double sim_ns = self_ns[L(Layer::kSimulate)];
  const double an_ns = self_ns[L(Layer::kAnalyze)];

  return {
      {"simulate.self_ms", ratio(sim_ns, ops) / 1e6, "ms"},
      {"simulate.ns_per_event", ratio(sim_ns, c.sim_events), "ns"},
      {"simulate.events", ratio(c.sim_events, ops), "count"},
      {"analyze.self_ms", ratio(an_ns, ops) / 1e6, "ms"},
      {"analyze.ns_per_event", ratio(an_ns, c.analyze_events), "ns"},
      {"trace.load_bin.ns_per_event",
       ratio(self_ns[L(Layer::kLoadBinary)], c.bin_events), "ns"},
      {"trace.load_text.ns_per_event",
       ratio(self_ns[L(Layer::kLoadText)], c.text_events), "ns"},
      {"trace.bin_bytes_per_event", ratio(c.bin_bytes, c.bin_events), "B"},
      {"trace.text_bytes_per_event", ratio(c.text_bytes, c.text_events), "B"},
      {"report.csv.ns_per_row", ratio(self_ns[L(Layer::kReportCsv)], c.report_rows), "ns"},
      {"report.xml.ns_per_row", ratio(self_ns[L(Layer::kReportXml)], c.report_rows), "ns"},
      {"report.rows", ratio(c.report_rows, c.report_calls), "count"},
      {"diff.snapshot.ns_per_cell", ratio(self_ns[L(Layer::kSnapshot)], c.snapshot_cells), "ns"},
      {"diff.compare.ns_per_cell", ratio(self_ns[L(Layer::kCompare)], c.compare_cells), "ns"},
      {"gen.self_ms", ratio(w.shadow_cells() ? gen_self : 0.0, ops) / 1e6, "ms"},
      {"service.ping_ms", med(durs[L(Layer::kPing)]), "ms"},
      {"service.hit_ms", med(durs[L(Layer::kHit)]), "ms"},
      {"service.miss_ms", med(durs[L(Layer::kMiss)]), "ms"},
      {"service.hit_ratio", ratio(c.hits, c.hits + c.misses), "ratio"},
      {"service.simulations", c.simulations, "count"},
      {"service.journal_bytes", c.journal_bytes, "B"},
      {"service.write_bytes_per_op", c.write_bytes_per_op, "B"},
      {"simulate.share", ratio(sim_ns, work_ns), "ratio"},
      {"analyze.share", ratio(an_ns, work_ns), "ratio"},
      {"trace.share", ratio(trace_ns, work_ns), "ratio"},
      {"report.share", ratio(report_ns, work_ns), "ratio"},
      {"diff.share", ratio(diff_ns, work_ns), "ratio"},
      {"gen.share", ratio(w.shadow_cells() ? gen_self : 0.0, work_ns), "ratio"},
      {"service.share", ratio(service_ns, work_ns), "ratio"},
      {"spans.coverage", ratio(covered, op_ns), "ratio"},
      {"tracing.overhead", ratio(real_op_ns / 1e6, ops * untraced_op_ms) - 1.0, "ratio"},
  };
}

}  // namespace

int replay_np(bool uses_openmp) { return uses_openmp ? 64 : 256; }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep", "replay", "serve"};
  return names;
}

Report run_workload(const Options& opt) {
  Report rep;
  std::size_t next_pass = 0;

  if (!opt.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    for (int s = 0; s < kSetups; ++s) {
      w.reset();  // tear the previous set-up down outside the timing
      const std::int64_t t0 = now_ns();
      w = make(opt, s);
      w->setup();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    SpanRecorder off(false);
    Loop l = run_loop(*w, opt.seconds, min_samples(0.9, kMinBeyondP90), off, &next_pass);
    if (samples_beyond(l.lat_ms.size(), 0.9) < kMinBeyondP90) {
      throw std::runtime_error("too few samples beyond p90 in the time limit");
    }
    rep.correct = w->finish();
    rep.attempted = l.lat_ms.size();
    rep.failed = l.failed;
    std::sort(l.lat_ms.begin(), l.lat_ms.end());
    rep.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ops_per_s", static_cast<double>(l.lat_ms.size()) / l.wall_s, "1/s"},
        {"op_p50_ms", percentile(l.lat_ms, 0.5), "ms"},
        {"op_p90_ms", percentile(l.lat_ms, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    rep.samples = samples_json(opt, l, kSetups);
    return rep;
  }

  // Traced run: one set-up, an untraced half for the overhead baseline,
  // then the traced half.
  auto w = make(opt, 0);
  w->setup();
  SpanRecorder off(false);
  const Loop base = run_loop(*w, opt.seconds / 2, 1, off, &next_pass);
  double base_ms = 0;
  for (double v : base.lat_ms) base_ms += v;
  base_ms /= static_cast<double>(base.lat_ms.size());

  SpanRecorder rec(true);
  const Loop traced = run_loop(*w, opt.seconds / 2, 1, rec, &next_pass);
  w->probe(rec);
  rep.correct = w->finish();
  rep.attempted = base.lat_ms.size() + traced.lat_ms.size();
  rep.failed = base.failed + traced.failed;
  rep.metrics = layer_metrics(*w, rec, base_ms);
  rep.samples = samples_json(opt, traced, 1);
  if (!opt.spans_out.empty()) {
    std::ofstream f(opt.spans_out, std::ios::binary);
    f << rec.tsv();
  }
  return rep;
}

}  // namespace perfbench
