// Tests for the report layer: timeline rasterisation, summaries, the
// EXPERT-style panes, CSV export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "common/hash.hpp"
#include "common/strutil.hpp"
#include "gen/registry.hpp"
#include "report/cube_view.hpp"
#include "report/cube_xml.hpp"
#include "report/timeline.hpp"
#include "trace/trace_io.hpp"
#include "test_util.hpp"

namespace ats::report {
namespace {

using testutil::run_mpi_traced;

trace::Trace small_trace() {
  return run_mpi_traced(2, [](mpi::Proc& p) {
    core::PropCtx ctx = core::PropCtx::from(p);
    core::do_work(ctx, 0.02);
    if (p.world_rank() == 0) {
      core::do_work(ctx, 0.03);
      int v = 7;
      p.send(&v, 1, mpi::Datatype::kInt32, 1, 0, p.comm_world());
    } else {
      int v = 0;
      p.recv(&v, 1, mpi::Datatype::kInt32, 0, 0, p.comm_world());
    }
    p.barrier(p.comm_world());
  });
}

TEST(Timeline, GlyphsAreDistinct) {
  std::set<char> glyphs;
  for (int k = 0; k <= static_cast<int>(trace::RegionKind::kIdle); ++k) {
    glyphs.insert(glyph_for(static_cast<trace::RegionKind>(k)));
  }
  EXPECT_EQ(glyphs.size(),
            static_cast<std::size_t>(trace::RegionKind::kIdle) + 1);
}

TEST(Timeline, RendersOneLanePerLocation) {
  const auto tr = small_trace();
  const std::string out = render_timeline(tr);
  EXPECT_NE(out.find("rank 0"), std::string::npos);
  EXPECT_NE(out.find("rank 1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);  // work phase visible
  EXPECT_NE(out.find('p'), std::string::npos);  // p2p phase visible
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(Timeline, LegendCanBeSuppressed) {
  TimelineOptions opt;
  opt.legend = false;
  const std::string out = render_timeline(small_trace(), opt);
  EXPECT_EQ(out.find("legend"), std::string::npos);
}

TEST(Timeline, WidthIsRespected) {
  TimelineOptions opt;
  opt.width = 40;
  opt.legend = false;
  const std::string out = render_timeline(small_trace(), opt);
  for (const std::string& line : split(out, '\n')) {
    EXPECT_LE(line.size(), 80u);  // label + lane, never the default 100+
  }
}

TEST(Timeline, TooSmallWidthThrows) {
  TimelineOptions opt;
  opt.width = 3;
  EXPECT_THROW(render_timeline(small_trace(), opt), UsageError);
}

TEST(Timeline, EmptyTraceHandled) {
  trace::Trace t;
  const std::string out = render_timeline(t);
  EXPECT_NE(out.find("empty"), std::string::npos);
}

TEST(Timeline, WorkDominatedBinShowsWork) {
  // One rank, one long work region: the lane must be mostly '#'.
  const auto tr = run_mpi_traced(1, [](mpi::Proc& p) {
    core::PropCtx ctx = core::PropCtx::from(p);
    core::do_work(ctx, 1.0);
  });
  TimelineOptions opt;
  opt.legend = false;
  const std::string out = render_timeline(tr, opt);
  std::size_t hashes = 0;
  for (char c : out) hashes += (c == '#');
  EXPECT_GT(hashes, 80u);
}

TEST(LocationSummary, TableHasOneRowPerLocation) {
  const auto tr = small_trace();
  const std::string out = render_location_summary(tr);
  EXPECT_NE(out.find("rank 0"), std::string::npos);
  EXPECT_NE(out.find("rank 1"), std::string::npos);
  EXPECT_NE(out.find("work"), std::string::npos);
}

TEST(CubeView, PropertyTreeShowsSeverities) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string out = render_property_tree(result, tr);
  EXPECT_NE(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("late sender"), std::string::npos);
  EXPECT_NE(out.find("100.0%"), std::string::npos);
}

TEST(CubeView, FindingsListRanked) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string out = render_findings(result, tr);
  EXPECT_NE(out.find("late sender"), std::string::npos);
  EXPECT_NE(out.find("MPI_Recv"), std::string::npos);
}

TEST(CubeView, CleanRunSaysWellTuned) {
  const auto tr = run_mpi_traced(2, [](mpi::Proc& p) {
    core::PropCtx ctx = core::PropCtx::from(p);
    core::do_work(ctx, 0.5);
    p.barrier(p.comm_world());
  });
  const auto result = analyze::analyze(tr);
  const std::string out = render_findings(result, tr);
  EXPECT_NE(out.find("well-tuned"), std::string::npos);
}

TEST(CubeView, DetailShowsCallPathAndLocations) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string out =
      render_property_detail(result, tr, analyze::PropertyId::kLateSender);
  EXPECT_NE(out.find("MPI_Recv"), std::string::npos);
  EXPECT_NE(out.find("rank 1"), std::string::npos);
  // Rank 0 never waits in a recv here, so it must not appear as location.
  EXPECT_EQ(out.find("rank 0 "), std::string::npos);
}

TEST(CubeView, DetailOfAbsentPropertyIsGraceful) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string out = render_property_detail(
      result, tr, analyze::PropertyId::kOmpLockContention);
  EXPECT_NE(out.find("no severity recorded"), std::string::npos);
}

TEST(CubeView, FullAnalysisRendering) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string out = render_analysis(result, tr);
  EXPECT_NE(out.find("automatic analysis"), std::string::npos);
  EXPECT_NE(out.find("performance properties"), std::string::npos);
}

TEST(CubeView, ProfileRenderingShowsVisits) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string out = render_profile(result, tr);
  EXPECT_NE(out.find("do_work"), std::string::npos);
  EXPECT_NE(out.find("MPI_Barrier"), std::string::npos);
}

TEST(CubeView, CsvHasHeaderAndRows) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string out = severity_csv(result, tr);
  const auto lines = split(out, '\n');
  EXPECT_EQ(lines[0], "property,call_path,location,severity_sec");
  EXPECT_GT(lines.size(), 2u);
  // Every data row has exactly 3 commas.
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), ','), 3)
        << lines[i];
  }
}

TEST(CubeXml, DocumentIsWellFormedEnough) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string xml = cube_xml(result, tr);
  EXPECT_TRUE(starts_with(xml, "<?xml"));
  // Balanced tags for the main sections.
  for (const char* tag : {"cube", "metrics", "program", "system",
                          "severity"}) {
    const std::string open = std::string("<") + tag;
    const std::string close = std::string("</") + tag + ">";
    EXPECT_NE(xml.find(open), std::string::npos) << tag;
    EXPECT_NE(xml.find(close), std::string::npos) << tag;
  }
  // Every property with severity appears as a matrix; late sender must.
  EXPECT_NE(xml.find("name=\"late sender\""), std::string::npos);
  EXPECT_NE(xml.find("<matrix"), std::string::npos);
  EXPECT_NE(xml.find("<row"), std::string::npos);
  // Locations listed.
  EXPECT_NE(xml.find("name=\"rank 0\""), std::string::npos);
  EXPECT_NE(xml.find("name=\"rank 1\""), std::string::npos);
}

TEST(CubeXml, EscapesSpecialCharacters) {
  trace::Trace t;
  trace::LocationInfo li;
  li.id = 0;
  li.kind = trace::LocKind::kProcess;
  li.rank = 0;
  li.name = "rank <0> & \"friends\"";
  t.add_location(std::move(li));
  const auto reg = t.regions().intern("a<b>", trace::RegionKind::kUser);
  t.enter(0, VTime(0), reg);
  t.exit(0, VTime(10), reg);
  const auto result = analyze::analyze(t);
  const std::string xml = cube_xml(result, t);
  EXPECT_EQ(xml.find("rank <0>"), std::string::npos);
  EXPECT_NE(xml.find("rank &lt;0&gt; &amp;"), std::string::npos);
  EXPECT_NE(xml.find("a&lt;b&gt;"), std::string::npos);
}

TEST(CubeXml, MatrixValuesMatchCube) {
  const auto tr = small_trace();
  const auto result = analyze::analyze(tr);
  const std::string xml = cube_xml(result, tr);
  // The late-sender row must contain the measured severity in seconds.
  const VDur sev = result.cube.total(analyze::PropertyId::kLateSender);
  EXPECT_NE(xml.find(fmt_double(sev.sec(), 9)), std::string::npos);
}

// cube_xml is pinned byte for byte through a checked-in hash list over
// the golden traces (written by `ats_validate --golden <dir> --regen`):
// every pinned trace, analysed leniently, must render to its listed hash.
TEST(CubeXml, GoldenCorpusMatchesPinnedHashes) {
  const std::string dir = ATS_GOLDEN_DIR;
  std::ifstream list(dir + "/cube_xml.fnv1a64");
  ASSERT_TRUE(list) << "missing " << dir << "/cube_xml.fnv1a64";
  std::map<std::string, std::string> pinned;
  std::string name, hex;
  while (list >> name >> hex) pinned[name] = hex;

  analyze::AnalyzerOptions aopt;
  aopt.lenient = true;
  std::size_t checked = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".trace") continue;
    name = e.path().stem().string();
    std::ifstream in(e.path(), std::ios::binary);
    const trace::LoadResult lr = trace::load_trace(in);
    ASSERT_TRUE(lr.ok()) << name;
    const std::string xml =
        cube_xml(analyze::analyze(lr.trace, aopt), lr.trace);
    char got[17];
    std::snprintf(got, sizeof got, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(xml)));
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << name << " has no pinned cube_xml hash";
    EXPECT_EQ(got, it->second) << name << ": cube_xml drifted";
    ++checked;
  }
  EXPECT_EQ(checked, pinned.size()) << "hash list names a missing trace";
  EXPECT_GE(checked, 29u);
}

TEST(FaultInjection, DisabledPatternIsNotReported) {
  const auto tr = small_trace();
  analyze::AnalyzerOptions opt;
  opt.disabled_patterns = {analyze::PropertyId::kLateSender};
  const auto result = analyze::analyze(tr, opt);
  EXPECT_EQ(result.cube.total(analyze::PropertyId::kLateSender),
            VDur::zero());
  // The healthy analyzer still finds it.
  const auto healthy = analyze::analyze(tr);
  EXPECT_GT(healthy.cube.total(analyze::PropertyId::kLateSender),
            VDur::zero());
}

TEST(FaultInjection, SuiteCatchesCrippledTool) {
  // The ATS end-to-end check: a positive late_sender test against a tool
  // with the late-sender pattern disabled must come back MISSED.
  const auto& def = gen::Registry::instance().find("late_sender");
  gen::RunConfig cfg;
  cfg.nprocs = 4;
  const auto tr = gen::run_single_property(def, def.positive, cfg);
  analyze::AnalyzerOptions crippled;
  crippled.disabled_patterns = {analyze::PropertyId::kLateSender};
  const auto result = analyze::analyze(tr, crippled);
  const auto dom = result.dominant();
  EXPECT_FALSE(dom.has_value() && dom->prop == *def.expected);
}

}  // namespace
}  // namespace ats::report
