#include "workload/scenario_io.hpp"

#include <gtest/gtest.h>

#include "check/fuzzer.hpp"
#include "model/dot_export.hpp"
#include "workload/rng.hpp"
#include "testutil.hpp"

namespace sparcle {
namespace {

using workload::parse_apps_text;
using workload::parse_scenario_text;
using workload::ScenarioFile;
using workload::write_app_text;
using workload::write_scenario;

const char* kBasic = R"(
# comment line
resources cpu

ncp a 100
ncp b 50 fail=0.1
link ab a b 1e6 fail=0.02

app stream be 2 0.9
  ct src 0
  ct work 10
  ct dst 0
  tt raw 1000 src work
  tt out 10 work dst
  pin src a
  pin dst b
end
)";

TEST(ScenarioIo, ParsesBasicScenario) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  ASSERT_EQ(sf.net.ncp_count(), 2u);
  EXPECT_EQ(sf.net.ncp(0).name, "a");
  EXPECT_DOUBLE_EQ(sf.net.ncp(0).capacity[0], 100.0);
  EXPECT_DOUBLE_EQ(sf.net.ncp(1).fail_prob, 0.1);
  ASSERT_EQ(sf.net.link_count(), 1u);
  EXPECT_DOUBLE_EQ(sf.net.link(0).bandwidth, 1e6);
  EXPECT_DOUBLE_EQ(sf.net.link(0).fail_prob, 0.02);
  ASSERT_EQ(sf.apps.size(), 1u);
  const Application& app = sf.apps[0];
  EXPECT_EQ(app.name, "stream");
  EXPECT_EQ(app.qoe.cls, QoeClass::kBestEffort);
  EXPECT_DOUBLE_EQ(app.qoe.priority, 2.0);
  EXPECT_DOUBLE_EQ(app.qoe.availability, 0.9);
  EXPECT_EQ(app.graph->ct_count(), 3u);
  EXPECT_EQ(app.graph->tt_count(), 2u);
  EXPECT_EQ(app.pinned.size(), 2u);
}

TEST(ScenarioIo, ParsesGuaranteedRateApps) {
  const std::string text = R"(
ncp a 100
ncp b 100
link ab a b 10
app g gr 2.5 0.85
  ct s 0
  ct t 1
  tt st 1 s t
  pin s a
  pin t b
end
)";
  const ScenarioFile sf = parse_scenario_text(text);
  ASSERT_EQ(sf.apps.size(), 1u);
  EXPECT_EQ(sf.apps[0].qoe.cls, QoeClass::kGuaranteedRate);
  EXPECT_DOUBLE_EQ(sf.apps[0].qoe.min_rate, 2.5);
  EXPECT_DOUBLE_EQ(sf.apps[0].qoe.min_rate_availability, 0.85);
}

TEST(ScenarioIo, ParsesMultiResourceSchema) {
  const std::string text = R"(
resources cpu memory
ncp a 100 32
ncp b 50 16
link ab a b 10
app x be 1
  ct s 0 0
  ct w 10 4
  tt sw 5 s w
  pin s a
  pin w b
end
)";
  const ScenarioFile sf = parse_scenario_text(text);
  EXPECT_EQ(sf.net.schema().size(), 2u);
  EXPECT_DOUBLE_EQ(sf.net.ncp(0).capacity[1], 32.0);
  EXPECT_DOUBLE_EQ(sf.apps[0].graph->ct(1).requirement[1], 4.0);
}

TEST(ScenarioIo, RoundTripsThroughWriter) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  const std::string text = write_scenario(sf);
  const ScenarioFile again = parse_scenario_text(text);
  ASSERT_EQ(again.net.ncp_count(), sf.net.ncp_count());
  ASSERT_EQ(again.net.link_count(), sf.net.link_count());
  for (NcpId j = 0; j < static_cast<NcpId>(sf.net.ncp_count()); ++j) {
    EXPECT_EQ(again.net.ncp(j).name, sf.net.ncp(j).name);
    EXPECT_EQ(again.net.ncp(j).capacity, sf.net.ncp(j).capacity);
    EXPECT_DOUBLE_EQ(again.net.ncp(j).fail_prob, sf.net.ncp(j).fail_prob);
  }
  ASSERT_EQ(again.apps.size(), sf.apps.size());
  const Application &a = again.apps[0], &b = sf.apps[0];
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.graph->ct_count(), b.graph->ct_count());
  EXPECT_EQ(a.graph->tt_count(), b.graph->tt_count());
  EXPECT_EQ(a.pinned, b.pinned);
  EXPECT_DOUBLE_EQ(a.qoe.priority, b.qoe.priority);
}

/// Full structural equality of two scenarios, exact on every double: the
/// writer now emits shortest-round-trip decimals, so nothing may drift.
void expect_identical(const ScenarioFile& a, const ScenarioFile& b) {
  ASSERT_EQ(a.net.schema().names(), b.net.schema().names());
  ASSERT_EQ(a.net.ncp_count(), b.net.ncp_count());
  for (NcpId j = 0; j < static_cast<NcpId>(a.net.ncp_count()); ++j) {
    EXPECT_EQ(a.net.ncp(j).name, b.net.ncp(j).name);
    EXPECT_EQ(a.net.ncp(j).capacity, b.net.ncp(j).capacity);
    EXPECT_EQ(a.net.ncp(j).fail_prob, b.net.ncp(j).fail_prob);
  }
  ASSERT_EQ(a.net.link_count(), b.net.link_count());
  for (LinkId l = 0; l < static_cast<LinkId>(a.net.link_count()); ++l) {
    EXPECT_EQ(a.net.link(l).name, b.net.link(l).name);
    EXPECT_EQ(a.net.link(l).a, b.net.link(l).a);
    EXPECT_EQ(a.net.link(l).b, b.net.link(l).b);
    EXPECT_EQ(a.net.link(l).bandwidth, b.net.link(l).bandwidth);
    EXPECT_EQ(a.net.link(l).fail_prob, b.net.link(l).fail_prob);
    EXPECT_EQ(a.net.link(l).directed, b.net.link(l).directed);
  }
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const Application &x = a.apps[i], &y = b.apps[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.qoe.cls, y.qoe.cls);
    EXPECT_EQ(x.qoe.priority, y.qoe.priority);
    EXPECT_EQ(x.qoe.availability, y.qoe.availability);
    EXPECT_EQ(x.qoe.min_rate, y.qoe.min_rate);
    EXPECT_EQ(x.qoe.min_rate_availability, y.qoe.min_rate_availability);
    EXPECT_EQ(x.pinned, y.pinned);
    ASSERT_EQ(x.graph->ct_count(), y.graph->ct_count());
    for (CtId c = 0; c < static_cast<CtId>(x.graph->ct_count()); ++c) {
      EXPECT_EQ(x.graph->ct(c).name, y.graph->ct(c).name);
      EXPECT_EQ(x.graph->ct(c).requirement, y.graph->ct(c).requirement);
    }
    ASSERT_EQ(x.graph->tt_count(), y.graph->tt_count());
    for (TtId k = 0; k < static_cast<TtId>(x.graph->tt_count()); ++k) {
      EXPECT_EQ(x.graph->tt(k).name, y.graph->tt(k).name);
      EXPECT_EQ(x.graph->tt(k).bits_per_unit, y.graph->tt(k).bits_per_unit);
      EXPECT_EQ(x.graph->tt(k).src, y.graph->tt(k).src);
      EXPECT_EQ(x.graph->tt(k).dst, y.graph->tt(k).dst);
    }
  }
}

/// Property: parse -> write -> parse is the identity (up to ids, which
/// the parser assigns in file order) on randomly generated scenarios with
/// non-representable decimals, failure probabilities, directed links, and
/// both QoE classes; and write is a fixed point (byte-identical on the
/// second pass).
class ScenarioRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioRoundTrip, GeneratedScenarioSurvivesExactly) {
  Rng rng(testutil::test_seed() + GetParam());
  check::FuzzOptions options;
  const ScenarioFile scenario = check::random_scenario(rng, options);

  const std::string text = write_scenario(scenario);
  const ScenarioFile reparsed = parse_scenario_text(text);
  expect_identical(scenario, reparsed);
  EXPECT_EQ(write_scenario(reparsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioRoundTrip, ::testing::Range(0, 25));

struct BadCase {
  const char* name;
  const char* text;
  const char* expect;  // substring of the error
};

// Without this gtest prints the struct's raw bytes, i.e. the addresses of
// its string literals, which ASLR moves on every run; ctest's discovered
// test names carry that text, so they would change with every build.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ScenarioIoErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ScenarioIoErrors, RejectsMalformedInput) {
  try {
    parse_scenario_text(GetParam().text);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect),
              std::string::npos)
        << "actual error: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioIoErrors,
    ::testing::Values(
        BadCase{"empty", "", "no NCPs"},
        BadCase{"unknown", "frobnicate x\n", "unknown directive"},
        BadCase{"dup_ncp", "ncp a 1\nncp a 2\n", "duplicate NCP"},
        BadCase{"bad_cap", "ncp a lots\n", "bad capacity"},
        BadCase{"link_unknown_ncp", "ncp a 1\nlink l a b 5\n",
                "unknown NCP"},
        BadCase{"ct_outside_app", "ncp a 1\nct x 1\n", "outside an app"},
        BadCase{"unterminated",
                "ncp a 1\napp x be 1\n ct s 0\n pin s a\n",
                "unterminated app"},
        BadCase{"nested_app", "ncp a 1\napp x be 1\napp y be 1\n",
                "nested 'app'"},
        BadCase{"tt_unknown_ct",
                "ncp a 1\napp x be 1\n ct s 0\n tt t 1 s ghost\nend\n",
                "unknown CT"},
        BadCase{"pin_unknown_ncp",
                "ncp a 1\napp x be 1\n ct s 0\n ct t 1\n tt st 1 s t\n "
                "pin s nowhere\n pin t a\nend\n",
                "unknown NCP"},
        BadCase{"unpinned_source",
                "ncp a 1\napp x be 1\n ct s 0\n ct t 1\n tt st 1 s t\n "
                "pin t a\nend\n",
                "not pinned"},
        BadCase{"cycle",
                "ncp a 1\napp x be 1\n ct s 1\n ct t 1\n tt st 1 s t\n "
                "tt ts 1 t s\nend\n",
                "cycle"},
        BadCase{"resources_late", "ncp a 1\nresources cpu\n",
                "must precede"},
        BadCase{"bad_class", "ncp a 1\napp x vip 1\n", "'be' or 'gr'"}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return info.param.name;
    });

TEST(ScenarioIo, ErrorsCarryFileAndLine) {
  try {
    parse_scenario_text("ncp a 1\nncp b 2\nbogus\n");
    FAIL();
  } catch (const std::runtime_error& e) {
    // Default source name, then ":<line>:" in compiler-style format.
    EXPECT_NE(std::string(e.what()).find("<scenario>:3:"), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(ScenarioIo, ErrorsUseCallerSuppliedSourceName) {
  try {
    parse_scenario_text("ncp a 1\nncp a 2\n", "edge.scn");
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("edge.scn:2:"), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(ScenarioIo, ErrorsQuoteTheOffendingToken) {
  try {
    parse_scenario_text("ncp a 1\napp x vip 1\n");
    FAIL();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<scenario>:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("'vip'"), std::string::npos) << what;
  }
}

TEST(ScenarioIo, ParseAppsTextResolvesAgainstExistingNetwork) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  const std::string block = write_app_text(sf.apps.at(0), sf.net);
  const std::vector<Application> apps =
      parse_apps_text(block, sf.net, "wire");
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].name, sf.apps[0].name);
  EXPECT_EQ(apps[0].pinned, sf.apps[0].pinned);
  EXPECT_EQ(write_app_text(apps[0], sf.net), block);
}

TEST(ScenarioIo, ParseAppsTextRejectsNetworkDirectives) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  try {
    parse_apps_text("ncp rogue 5\n", sf.net, "wire");
    FAIL();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wire:1:"), std::string::npos) << what;
    EXPECT_NE(what.find("network is fixed"), std::string::npos) << what;
  }
}

TEST(ScenarioIo, ParseAppsTextRejectsMalformedApplicationNumbers) {
  // kBasic's app as a wire block with one number made hostile: every CT
  // requirement and TT bit count must be finite and >= 0, a BE priority
  // and a GR min rate finite and > 0, an availability in [0, 1].  Each
  // refusal names the wire source and the line it blames.
  const ScenarioFile sf = parse_scenario_text(kBasic);
  const std::string block = write_app_text(sf.apps.at(0), sf.net);
  const struct {
    std::string from, to;
    const char* where;
  } cases[] = {
      {"ct work 10", "ct work nan", "wire:3:"},
      {"ct work 10", "ct work -5", "wire:3:"},
      {"ct work 10", "ct work inf", "wire:3:"},
      {"tt raw 1000", "tt raw inf", "wire:5:"},
      {"tt raw 1000", "tt raw nan", "wire:5:"},
      {"be 2 0.9", "be nan 0.9", "wire:9:"},
      {"be 2 0.9", "be inf 0.9", "wire:9:"},
      {"be 2 0.9", "be -2 0.9", "wire:9:"},
      {"be 2 0.9", "be 2 1.5", "wire:9:"},
      {"be 2 0.9", "be 2 nan", "wire:9:"},
      {"be 2 0.9", "gr inf 0.9", "wire:9:"},
      {"be 2 0.9", "gr nan 0.9", "wire:9:"},
      {"be 2 0.9", "gr 1 -0.5", "wire:9:"},
  };
  for (const auto& c : cases) {
    std::string text = block;
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from << " in\n" << block;
    text.replace(at, c.from.size(), c.to);
    try {
      parse_apps_text(text, sf.net, "wire");
      ADD_FAILURE() << "accepted '" << c.to << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(c.where, 0), 0u)
          << "'" << c.to << "': " << e.what();
    }
  }
}

TEST(ScenarioIo, ParseScenarioTextRejectsMalformedNetworkNumbers) {
  // kBasic with one network number made hostile: an NCP capacity must be
  // finite and >= 0, a link bandwidth > 0 and finite (NaN is a dead link),
  // a failure probability in [0, 1).  Each refusal names the source and
  // the line it blames.
  const struct {
    std::string from, to;
    const char* where;
  } cases[] = {
      {"ncp a 100", "ncp a inf", "<scenario>:5:"},
      {"ncp a 100", "ncp a nan", "<scenario>:5:"},
      {"ncp a 100", "ncp a -5", "<scenario>:5:"},
      {"ncp b 50", "ncp b -inf", "<scenario>:6:"},
      {"link ab a b 1e6", "link ab a b inf", "<scenario>:7:"},
      {"link ab a b 1e6", "link ab a b -5", "<scenario>:7:"},
      {"link ab a b 1e6", "link ab a b 0", "<scenario>:7:"},
      {"link ab a b 1e6", "dlink ab a b inf", "<scenario>:7:"},
      {"fail=0.1", "fail=nan", "<scenario>:6:"},
      {"fail=0.02", "fail=nan", "<scenario>:7:"},
  };
  for (const auto& c : cases) {
    std::string text = kBasic;
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    text.replace(at, c.from.size(), c.to);
    try {
      parse_scenario_text(text);
      ADD_FAILURE() << "accepted '" << c.to << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(c.where, 0), 0u)
          << "'" << c.to << "': " << e.what();
    }
  }
}

TEST(ScenarioIo, ParseAppsTextRequiresAnAppBlock) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  EXPECT_THROW(parse_apps_text("# just a comment\n", sf.net),
               std::runtime_error);
}

TEST(ScenarioIo, MissingFileThrows) {
  EXPECT_THROW(workload::load_scenario_file("/no/such/file.scn"),
               std::runtime_error);
}

TEST(DotExport, NetworkContainsAllElements) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  const std::string dot = network_to_dot(sf.net);
  EXPECT_NE(dot.find("graph network"), std::string::npos);
  EXPECT_NE(dot.find("\"a\""), std::string::npos);
  EXPECT_NE(dot.find("\"b\""), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -- \"b\""), std::string::npos);
}

TEST(DotExport, TaskGraphIsDirected) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  const std::string dot = task_graph_to_dot(*sf.apps[0].graph);
  EXPECT_NE(dot.find("digraph taskgraph"), std::string::npos);
  EXPECT_NE(dot.find("\"src\" -> \"work\""), std::string::npos);
  EXPECT_NE(dot.find("\"work\" -> \"dst\""), std::string::npos);
}

TEST(DotExport, PlacementShowsHostedCts) {
  const ScenarioFile sf = parse_scenario_text(kBasic);
  const TaskGraph& g = *sf.apps[0].graph;
  Placement p(g);
  p.place_ct(0, 0);
  p.place_ct(1, 0);
  p.place_ct(2, 1);
  p.place_tt(0, {});
  p.place_tt(1, {0});
  const std::string dot = placement_to_dot(sf.net, g, p);
  EXPECT_NE(dot.find("src, work"), std::string::npos);  // hosted on a
  EXPECT_NE(dot.find("{out}"), std::string::npos);      // TT on the link
  EXPECT_NE(dot.find("lightblue"), std::string::npos);
}

TEST(ScenarioIo, RegionLabelsRoundTripThroughWriter) {
  ScenarioFile sf;
  sf.net = Network(ResourceSchema::cpu_only());
  sf.net.add_ncp("a0", ResourceVector::scalar(4.0), 0.0, "r0");
  sf.net.add_ncp("a1", ResourceVector::scalar(8.0), 0.05, "r0");
  sf.net.add_ncp("b0", ResourceVector::scalar(2.0), 0.0, "r1");
  sf.net.add_ncp("u", ResourceVector::scalar(1.0));  // unlabeled survives
  sf.net.add_link("ab", 0, 2, 100.0);

  const std::string text = write_scenario(sf);
  EXPECT_NE(text.find("region=r0"), std::string::npos) << text;
  const ScenarioFile again = parse_scenario_text(text);
  ASSERT_EQ(again.net.ncp_count(), 4u);
  EXPECT_EQ(again.net.ncp(0).region, "r0");
  EXPECT_EQ(again.net.ncp(1).region, "r0");
  EXPECT_DOUBLE_EQ(again.net.ncp(1).fail_prob, 0.05);  // fail= kept too
  EXPECT_EQ(again.net.ncp(2).region, "r1");
  EXPECT_EQ(again.net.ncp(3).region, "");
}

TEST(ScenarioIo, RegionTokenParsesInEitherOrderWithFail) {
  const ScenarioFile sf = parse_scenario_text(R"(
resources cpu
ncp x 10 region=west fail=0.1
ncp y 10 fail=0.2 region=east
link xy x y 100
)");
  EXPECT_EQ(sf.net.ncp(0).region, "west");
  EXPECT_DOUBLE_EQ(sf.net.ncp(0).fail_prob, 0.1);
  EXPECT_EQ(sf.net.ncp(1).region, "east");
  EXPECT_DOUBLE_EQ(sf.net.ncp(1).fail_prob, 0.2);
}

}  // namespace
}  // namespace sparcle

