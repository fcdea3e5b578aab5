#include "diff/diff.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strutil.hpp"

namespace ats::diff {

namespace fs = std::filesystem;

namespace {

constexpr const char* kCsvHeader = "property,call_path,location,severity_sec";

/// A cell's display identity, viewing the strings of a snapshot that
/// outlives the key.
struct CellKey {
  std::string_view property, path, location;

  explicit CellKey(const SnapshotCell& c)
      : property(c.property), path(c.call_path), location(c.location) {}
  bool operator==(const CellKey&) const = default;
};

struct CellKeyHash {
  std::size_t operator()(const CellKey& k) const {
    const std::hash<std::string_view> h;
    std::size_t v = h(k.property);
    v ^= h(k.path) + 0x9e3779b97f4a7c15ULL + (v << 6) + (v >> 2);
    v ^= h(k.location) + 0x9e3779b97f4a7c15ULL + (v << 6) + (v >> 2);
    return v;
  }
};

/// Change test shared by every diff flavour: both floors must clear.
bool clears_floors(double a, double b, const DiffOptions& opt) {
  const double d = std::fabs(b - a);
  return d > opt.abs_floor_sec && d > opt.rel_floor * std::max(a, b);
}

/// PropertyId for a report name; kCount_ when the name is unknown (a
/// foreign or future property — treated as an attributable leaf).
analyze::PropertyId property_by_name(const std::string& name) {
  for (analyze::PropertyId p : analyze::property_preorder()) {
    if (name == analyze::property_name(p)) return p;
  }
  return analyze::PropertyId::kCount_;
}

bool attributable(const std::string& property) {
  const analyze::PropertyId p = property_by_name(property);
  if (p == analyze::PropertyId::kCount_) return true;
  const auto& info = analyze::property_info(p);
  return info.is_waitstate && !info.is_overhead;
}

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- Snapshot

Snapshot Snapshot::from_result(const analyze::AnalysisResult& result,
                               const trace::Trace& trace) {
  Snapshot s;
  const std::vector<std::string> paths = result.profile.path_strings(trace);
  result.cube.for_each([&](analyze::PropertyId p, analyze::NodeId n,
                           trace::LocId l, VDur d) {
    s.cells.push_back({analyze::property_name(p),
                       paths[static_cast<std::size_t>(n)],
                       trace.location(l).name, d.sec()});
  });
  for (const auto& defect : result.defects) {
    s.defects.push_back(defect.describe(trace));
  }
  return s;
}

Snapshot Snapshot::from_severity_csv(const std::string& text) {
  Snapshot s;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kCsvHeader) {
    throw UsageError("severity CSV: expected header '" +
                     std::string(kCsvHeader) + "', got '" + line + "'");
  }
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto fields = split(line, ',');
    if (fields.size() < 4) {
      throw UsageError("severity CSV line " + std::to_string(lineno) +
                       ": expected 4 fields, got " +
                       std::to_string(fields.size()));
    }
    // Call paths could in principle contain commas; property, location and
    // severity never do, so re-join the middle fields.
    SnapshotCell cell;
    cell.property = fields.front();
    cell.location = fields[fields.size() - 2];
    cell.call_path = join(
        std::vector<std::string>(fields.begin() + 1, fields.end() - 2), ",");
    try {
      cell.severity_sec = std::stod(fields.back());
    } catch (const std::exception&) {
      throw UsageError("severity CSV line " + std::to_string(lineno) +
                       ": bad severity '" + fields.back() + "'");
    }
    s.cells.push_back(std::move(cell));
  }
  return s;
}

std::string Snapshot::severity_csv() const {
  std::string out = std::string(kCsvHeader) + "\n";
  for (const auto& c : cells) {
    out += c.property + "," + c.call_path + "," + c.location + "," +
           fmt_double(c.severity_sec, 9) + "\n";
  }
  return out;
}

std::vector<std::string> parse_defect_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || starts_with(line, "===") || line == "(none)") continue;
    out.push_back(line);
  }
  return out;
}

// --------------------------------------------------------------- calibrate

DiffOptions calibrate(const std::vector<Snapshot>& repeats, DiffOptions base) {
  if (repeats.size() < 2) return base;
  struct Spread {
    double min = 0.0, max = 0.0;
    std::size_t seen = 0;
  };
  std::unordered_map<CellKey, Spread, CellKeyHash> spreads;
  for (const auto& snap : repeats) {
    for (const auto& c : snap.cells) {
      auto& sp = spreads[CellKey(c)];
      if (sp.seen == 0) {
        sp.min = sp.max = c.severity_sec;
      } else {
        sp.min = std::min(sp.min, c.severity_sec);
        sp.max = std::max(sp.max, c.severity_sec);
      }
      ++sp.seen;
    }
  }
  DiffOptions out = base;
  for (const auto& [key, sp] : spreads) {
    (void)key;
    // A cell missing from some repeat flickers at its full magnitude: pure
    // noise at that absolute scale.  A cell present everywhere contributes
    // its worst relative spread instead.
    if (sp.seen < repeats.size()) {
      out.abs_floor_sec = std::max(out.abs_floor_sec, 2.0 * sp.max);
    } else if (sp.max > 0.0) {
      const double rel = (sp.max - sp.min) / sp.max;
      out.rel_floor = std::max(out.rel_floor, std::min(0.5, 2.0 * rel));
    }
  }
  return out;
}

// -------------------------------------------------------------- cell diffs

const char* to_string(DeltaKind k) {
  switch (k) {
    case DeltaKind::kAdded: return "added";
    case DeltaKind::kRemoved: return "removed";
    case DeltaKind::kIncreased: return "increased";
    case DeltaKind::kDecreased: return "decreased";
  }
  return "?";
}

double CellDelta::rel() const {
  const double m = std::max(a_sec, b_sec);
  return m > 0.0 ? std::fabs(b_sec - a_sec) / m : 0.0;
}

double RowDelta::rel() const {
  const double m = std::max(a_sec, b_sec);
  return m > 0.0 ? std::fabs(b_sec - a_sec) / m : 0.0;
}

bool DiffResult::empty() const {
  return cells.empty() && defects_added.empty() && defects_removed.empty();
}

bool DiffResult::regression() const {
  if (!defects_added.empty()) return true;
  for (const auto& c : cells) {
    if (c.kind == DeltaKind::kAdded || c.kind == DeltaKind::kIncreased) {
      return true;
    }
  }
  return false;
}

DiffResult diff_snapshots(const Snapshot& a, const Snapshot& b,
                          DiffOptions opt) {
  DiffResult out;
  out.options = opt;

  // Pair the cells by identity, preserving A's stable order with B-only
  // cells appended in B's order.  The identity is the *display* triple, and
  // distinct location ids can legally share a name (hybrid traces reuse
  // "rank R thread T" across parallel regions) — duplicates therefore
  // accumulate into one logical cell on each side.
  struct Pair {
    const SnapshotCell* cell;  ///< representative (A side when present)
    double a_sec = 0.0, b_sec = 0.0;
    bool in_a = false, in_b = false;
  };
  std::vector<Pair> pairs;
  std::unordered_map<CellKey, std::size_t, CellKeyHash> index;
  pairs.reserve(a.cells.size() + b.cells.size());
  index.reserve(a.cells.size() + b.cells.size());
  for (const auto& c : a.cells) {
    const auto [it, inserted] = index.try_emplace(CellKey(c), pairs.size());
    if (inserted) {
      pairs.push_back({&c, c.severity_sec, 0.0, true, false});
    } else {
      pairs[it->second].a_sec += c.severity_sec;
    }
  }
  for (const auto& c : b.cells) {
    const auto [it, inserted] = index.try_emplace(CellKey(c), pairs.size());
    if (inserted) {
      pairs.push_back({&c, 0.0, c.severity_sec, false, true});
    } else if (pairs[it->second].in_b) {
      pairs[it->second].b_sec += c.severity_sec;
    } else {
      pairs[it->second].b_sec = c.severity_sec;
      pairs[it->second].in_b = true;
    }
  }
  out.cells_compared = pairs.size();

  // Per-property roll-up over every cell; the changed subset feeds the
  // reported cell deltas.  Cells arrive grouped by property (the for_each
  // order), so the entry is looked up only when the property changes.
  struct Roll {
    double a = 0.0, b = 0.0;
    std::size_t changed = 0;
    std::size_t order = 0;  ///< first-seen position, for stable output
  };
  std::map<std::string, Roll> rolls;
  std::size_t next_order = 0;
  const std::string* roll_property = nullptr;
  Roll* roll = nullptr;
  for (const auto& p : pairs) {
    if (roll_property == nullptr || *roll_property != p.cell->property) {
      auto [it, inserted] = rolls.try_emplace(p.cell->property);
      if (inserted) it->second.order = next_order++;
      roll_property = &it->first;
      roll = &it->second;
    }
    roll->a += p.a_sec;
    roll->b += p.b_sec;
    if (!clears_floors(p.a_sec, p.b_sec, opt)) continue;
    roll->changed += 1;
    CellDelta d;
    d.property = p.cell->property;
    d.call_path = p.cell->call_path;
    d.location = p.cell->location;
    d.a_sec = p.a_sec;
    d.b_sec = p.b_sec;
    d.kind = !p.in_a   ? DeltaKind::kAdded
             : !p.in_b ? DeltaKind::kRemoved
             : p.b_sec > p.a_sec ? DeltaKind::kIncreased
                                 : DeltaKind::kDecreased;
    out.cells.push_back(std::move(d));
  }
  std::stable_sort(out.cells.begin(), out.cells.end(),
                   [](const CellDelta& x, const CellDelta& y) {
                     return std::fabs(x.delta()) > std::fabs(y.delta());
                   });

  std::vector<const std::pair<const std::string, Roll>*> ordered;
  for (const auto& kv : rolls) ordered.push_back(&kv);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* x, const auto* y) {
              return x->second.order < y->second.order;
            });
  double best_regression = 0.0;
  for (const auto* kv : ordered) {
    const Roll& r = kv->second;
    PropertyDelta pd;
    pd.property = kv->first;
    pd.a_total_sec = r.a;
    pd.b_total_sec = r.b;
    pd.cells_changed = r.changed;
    pd.regressed = r.b > r.a && clears_floors(r.a, r.b, opt);
    pd.improved = r.b < r.a && clears_floors(r.a, r.b, opt);
    if (pd.regressed && attributable(pd.property) &&
        pd.delta() > best_regression) {
      best_regression = pd.delta();
      out.attribution = pd.property;
    }
    if (pd.cells_changed > 0 || pd.regressed || pd.improved) {
      out.properties.push_back(std::move(pd));
    }
  }

  // Defect sets diff as exact line sets (order-insensitive).
  std::set<std::string> da(a.defects.begin(), a.defects.end());
  std::set<std::string> db(b.defects.begin(), b.defects.end());
  for (const auto& d : db) {
    if (!da.count(d)) out.defects_added.push_back(d);
  }
  for (const auto& d : da) {
    if (!db.count(d)) out.defects_removed.push_back(d);
  }
  return out;
}

// -------------------------------------------------------------- sweep diffs

std::vector<RowDelta> diff_rows(const std::vector<gen::ExperimentRow>& a,
                                const std::vector<gen::ExperimentRow>& b,
                                DiffOptions opt) {
  std::vector<RowDelta> out;
  std::unordered_map<std::string, std::size_t> index;
  for (const auto& row : a) {
    RowDelta d;
    d.value = row.value;
    d.a_sec = row.severity.sec();
    d.in_a = true;
    index.emplace(row.value, out.size());
    out.push_back(std::move(d));
  }
  std::unordered_map<std::string, gen::RunOutcome> outcome_a;
  for (const auto& row : a) outcome_a.emplace(row.value, row.outcome);
  for (const auto& row : b) {
    const auto it = index.find(row.value);
    if (it != index.end()) {
      RowDelta& d = out[it->second];
      d.b_sec = row.severity.sec();
      d.in_b = true;
      const auto oa = outcome_a.find(row.value);
      d.outcome_changed = oa != outcome_a.end() && oa->second != row.outcome;
    } else {
      RowDelta d;
      d.value = row.value;
      d.b_sec = row.severity.sec();
      d.in_b = true;
      out.push_back(std::move(d));
    }
  }
  for (RowDelta& d : out) {
    d.changed = !d.in_a || !d.in_b || d.outcome_changed ||
                clears_floors(d.a_sec, d.b_sec, opt);
  }
  return out;
}

// ------------------------------------------------------------ corpus diffs

bool CorpusDiff::clean() const {
  for (const auto& e : entries) {
    if (e.missing_in_a || e.missing_in_b || !e.diff.empty()) return false;
  }
  return true;
}

bool CorpusDiff::regression() const {
  for (const auto& e : entries) {
    if (e.missing_in_a || e.missing_in_b || e.diff.regression()) return true;
  }
  return false;
}

namespace {

struct CorpusEntryFiles {
  std::string expected_a, expected_b;  ///< file paths, "" when absent
  std::string defects_a, defects_b;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void scan_corpus_dir(const std::string& dir, bool side_a,
                     std::map<std::string, CorpusEntryFiles>& entries) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) throw Error("cannot read corpus directory " + dir + ": " +
                      ec.message());
  for (const auto& de : it) {
    if (!de.is_regular_file()) continue;
    const fs::path p = de.path();
    const std::string ext = p.extension().string();
    if (ext != ".expected" && ext != ".defects") continue;
    CorpusEntryFiles& e = entries[p.stem().string()];
    std::string& slot = ext == ".expected"
                            ? (side_a ? e.expected_a : e.expected_b)
                            : (side_a ? e.defects_a : e.defects_b);
    slot = p.string();
  }
}

}  // namespace

CorpusDiff diff_corpus(const std::string& dir_a, const std::string& dir_b,
                       DiffOptions opt) {
  std::map<std::string, CorpusEntryFiles> files;
  scan_corpus_dir(dir_a, /*side_a=*/true, files);
  scan_corpus_dir(dir_b, /*side_a=*/false, files);

  CorpusDiff out;
  for (const auto& [name, f] : files) {
    CorpusEntryDiff entry;
    entry.name = name;
    const bool has_a = !f.expected_a.empty() || !f.defects_a.empty();
    const bool has_b = !f.expected_b.empty() || !f.defects_b.empty();
    entry.missing_in_a = !has_a || (f.expected_b != "" && f.expected_a == "") ||
                         (f.defects_b != "" && f.defects_a == "");
    entry.missing_in_b = !has_b || (f.expected_a != "" && f.expected_b == "") ||
                         (f.defects_a != "" && f.defects_b == "");
    Snapshot a, b;
    a.label = name + " (A)";
    b.label = name + " (B)";
    if (!f.expected_a.empty()) {
      a = Snapshot::from_severity_csv(read_file(f.expected_a));
    }
    if (!f.expected_b.empty()) {
      b = Snapshot::from_severity_csv(read_file(f.expected_b));
    }
    if (!f.defects_a.empty()) {
      a.defects = parse_defect_lines(read_file(f.defects_a));
    }
    if (!f.defects_b.empty()) {
      b.defects = parse_defect_lines(read_file(f.defects_b));
    }
    entry.diff = diff_snapshots(a, b, opt);
    ++out.entries_compared;
    out.entries.push_back(std::move(entry));
  }
  return out;
}

// ---------------------------------------------------------------- rendering

std::string render_text(const DiffResult& d, const std::string& label_a,
                        const std::string& label_b) {
  std::ostringstream os;
  os << "=== cross-run diff (A = " << label_a << ", B = " << label_b
     << ") ===\n";
  os << "cells compared: " << d.cells_compared
     << "  changed: " << d.cells.size()
     << "  floors: abs " << fmt_double(d.options.abs_floor_sec, 9)
     << "s, rel " << fmt_percent(d.options.rel_floor) << "\n";
  if (d.empty()) {
    os << "(no differences above thresholds)\n";
    return os.str();
  }
  if (!d.attribution.empty()) {
    os << "regression attributed to: " << d.attribution << "\n";
  }
  if (!d.properties.empty()) {
    os << "\n" << pad_right("property", 28) << pad_left("A total", 14)
       << pad_left("B total", 14) << pad_left("delta", 14)
       << pad_left("cells", 7) << "  verdict\n" << repeat('-', 85) << "\n";
    for (const auto& p : d.properties) {
      os << pad_right(p.property, 28)
         << pad_left(fmt_double(p.a_total_sec, 6), 14)
         << pad_left(fmt_double(p.b_total_sec, 6), 14)
         << pad_left(fmt_double(p.delta(), 6), 14)
         << pad_left(std::to_string(p.cells_changed), 7) << "  "
         << (p.regressed ? "REGRESSED" : p.improved ? "improved" : "moved")
         << "\n";
    }
  }
  if (!d.cells.empty()) {
    os << "\nchanged cells (largest first):\n";
    for (const auto& c : d.cells) {
      os << "  " << to_string(c.kind) << "  " << c.property << " | "
         << c.call_path << " | " << c.location << ": "
         << fmt_double(c.a_sec, 6) << " -> " << fmt_double(c.b_sec, 6)
         << " (" << (c.delta() >= 0 ? "+" : "") << fmt_double(c.delta(), 6)
         << "s, " << fmt_percent(c.rel()) << ")\n";
    }
  }
  for (const auto& def : d.defects_added) {
    os << "defect added: " << def << "\n";
  }
  for (const auto& def : d.defects_removed) {
    os << "defect removed: " << def << "\n";
  }
  return os.str();
}

std::string diff_csv(const DiffResult& d) {
  std::string out = "property,call_path,location,a_sec,b_sec,delta_sec,rel,kind\n";
  for (const auto& c : d.cells) {
    out += c.property + "," + c.call_path + "," + c.location + "," +
           fmt_double(c.a_sec, 9) + "," + fmt_double(c.b_sec, 9) + "," +
           fmt_double(c.delta(), 9) + "," + fmt_double(c.rel(), 4) + "," +
           to_string(c.kind) + "\n";
  }
  for (const auto& def : d.defects_added) {
    out += "defect,," + def + ",0,1,1,1,added\n";
  }
  for (const auto& def : d.defects_removed) {
    out += "defect,," + def + ",1,0,-1,1,removed\n";
  }
  return out;
}

std::string diff_xml(const DiffResult& d, const std::string& label_a,
                     const std::string& label_b) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<diff a=\"" << xml_escape(label_a) << "\" b=\""
     << xml_escape(label_b) << "\" cells_compared=\"" << d.cells_compared
     << "\" empty=\"" << (d.empty() ? 1 : 0) << "\" regression=\""
     << (d.regression() ? 1 : 0) << "\" attribution=\""
     << xml_escape(d.attribution) << "\">\n";
  os << "  <thresholds abs_floor_sec=\""
     << fmt_double(d.options.abs_floor_sec, 9) << "\" rel_floor=\""
     << fmt_double(d.options.rel_floor, 4) << "\"/>\n";
  for (const auto& p : d.properties) {
    os << "  <property name=\"" << xml_escape(p.property) << "\" a=\""
       << fmt_double(p.a_total_sec, 9) << "\" b=\""
       << fmt_double(p.b_total_sec, 9) << "\" cells_changed=\""
       << p.cells_changed << "\" verdict=\""
       << (p.regressed ? "regressed" : p.improved ? "improved" : "moved")
       << "\"/>\n";
  }
  for (const auto& c : d.cells) {
    os << "  <cell kind=\"" << to_string(c.kind) << "\" property=\""
       << xml_escape(c.property) << "\" call_path=\""
       << xml_escape(c.call_path) << "\" location=\""
       << xml_escape(c.location) << "\" a=\"" << fmt_double(c.a_sec, 9)
       << "\" b=\"" << fmt_double(c.b_sec, 9) << "\"/>\n";
  }
  for (const auto& def : d.defects_added) {
    os << "  <defect change=\"added\">" << xml_escape(def) << "</defect>\n";
  }
  for (const auto& def : d.defects_removed) {
    os << "  <defect change=\"removed\">" << xml_escape(def) << "</defect>\n";
  }
  os << "</diff>\n";
  return os.str();
}

std::string render_corpus_text(const CorpusDiff& c, const std::string& label_a,
                               const std::string& label_b) {
  std::ostringstream os;
  os << "=== corpus diff (A = " << label_a << ", B = " << label_b << ", "
     << c.entries_compared << " entries) ===\n";
  std::size_t shown = 0;
  for (const auto& e : c.entries) {
    if (e.missing_in_a) {
      os << e.name << ": MISSING in A\n";
      ++shown;
      continue;
    }
    if (e.missing_in_b) {
      os << e.name << ": MISSING in B\n";
      ++shown;
      continue;
    }
    if (e.diff.empty()) continue;
    ++shown;
    os << e.name << ": " << e.diff.cells.size() << " cell change(s)";
    if (!e.diff.attribution.empty()) {
      os << ", attributed to " << e.diff.attribution;
    }
    if (!e.diff.defects_added.empty() || !e.diff.defects_removed.empty()) {
      os << ", defects +" << e.diff.defects_added.size() << "/-"
         << e.diff.defects_removed.size();
    }
    os << "\n" << render_text(e.diff, label_a + "/" + e.name,
                              label_b + "/" + e.name);
  }
  if (shown == 0) os << "(all entries identical within thresholds)\n";
  return os.str();
}

std::string corpus_csv(const CorpusDiff& c) {
  std::string out =
      "entry,property,call_path,location,a_sec,b_sec,delta_sec,rel,kind\n";
  for (const auto& e : c.entries) {
    if (e.missing_in_a) {
      out += e.name + ",,,,0,0,0,0,missing_in_a\n";
      continue;
    }
    if (e.missing_in_b) {
      out += e.name + ",,,,0,0,0,0,missing_in_b\n";
      continue;
    }
    const std::string body = diff_csv(e.diff);
    std::istringstream in(body);
    std::string line;
    std::getline(in, line);  // drop the inner header
    while (std::getline(in, line)) {
      if (!line.empty()) out += e.name + "," + line + "\n";
    }
  }
  return out;
}

std::string corpus_xml(const CorpusDiff& c, const std::string& label_a,
                       const std::string& label_b) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<corpus-diff a=\"" << xml_escape(label_a) << "\" b=\""
     << xml_escape(label_b) << "\" entries=\"" << c.entries_compared
     << "\" clean=\"" << (c.clean() ? 1 : 0) << "\">\n";
  for (const auto& e : c.entries) {
    os << "  <entry name=\"" << xml_escape(e.name) << "\" missing_in_a=\""
       << (e.missing_in_a ? 1 : 0) << "\" missing_in_b=\""
       << (e.missing_in_b ? 1 : 0) << "\" empty=\""
       << (e.diff.empty() ? 1 : 0) << "\"/>\n";
  }
  os << "</corpus-diff>\n";
  return os.str();
}

}  // namespace ats::diff
