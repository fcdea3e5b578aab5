// EXPERT-style result presentation (paper Fig. 3.5).
//
// Three linked panes rendered as text:
//   1. the performance-property tree with severities (% of total time),
//   2. the call tree of the selected property's severity,
//   3. the per-location severities of the selected call path.
// render_analysis shows the full tree plus the three-pane drill-down for
// every reported finding; render_findings is the compact ranked list.
#pragma once

#include <string>

#include "analyzer/analyzer.hpp"
#include "trace/trace.hpp"

namespace ats::report {

/// Pane 1: the property tree with severity percentages.
std::string render_property_tree(const analyze::AnalysisResult& result,
                                 const trace::Trace& trace);

/// Pane 2+3 for one property: severity by call path, and per-location
/// breakdown of the heaviest call path.
std::string render_property_detail(const analyze::AnalysisResult& result,
                                   const trace::Trace& trace,
                                   analyze::PropertyId prop);

/// Ranked findings table (property, severity, share, dominant call path).
std::string render_findings(const analyze::AnalysisResult& result,
                            const trace::Trace& trace);

/// Data-quality pane: what the replay dropped, repaired, or could not
/// match, plus the clock-skew verdict (analyze::DataQuality).
std::string render_data_quality(const analyze::AnalysisResult& result);

/// Structural-defect pane: one line per collective-correctness violation
/// (analyze::StructuralDefect), citing ranks and per-rank call index.
std::string render_defects(const analyze::AnalysisResult& result,
                           const trace::Trace& trace);

/// Machine-readable defect dump: one CSV row per (defect, rank), including
/// a row per missing rank; empty defect list yields the header only.
/// Schema: docs/DEFECTS.md.
std::string defect_csv(const analyze::AnalysisResult& result,
                       const trace::Trace& trace);

/// The full EXPERT-like report: property tree, findings, per-finding
/// drill-down panes, and — when the trace was not pristine — the
/// data-quality pane.
std::string render_analysis(const analyze::AnalysisResult& result,
                            const trace::Trace& trace);

/// Call-path profile rendering (inclusive/exclusive times per node).
std::string render_profile(const analyze::AnalysisResult& result,
                           const trace::Trace& trace, int max_depth = 6);

/// Machine-readable severity dump: one CSV row per
/// (property, call path, location) with a non-zero severity; severities
/// are seconds with nine decimals (append_seconds, docs/DIFF.md).
std::string severity_csv(const analyze::AnalysisResult& result,
                         const trace::Trace& trace);

}  // namespace ats::report
