// Unit tests for scaa::cli (argument parsing, report emission, campaign
// subcommand registry). The parser tests pin down the two historical bench
// bugs: flags in the final argv position being ignored, and non-numeric
// values silently becoming 0 via atoi.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/campaigns.hpp"
#include "cli/report.hpp"

namespace {

using namespace scaa;

cli::ArgParser make_parser() {
  cli::ArgParser args("prog", "test parser");
  args.add_int("--reps", 20, "repetitions");
  args.add_int("--threads", 0, "threads");
  args.add_uint("--seed", 2022, "seed");
  args.add_double("--gap", 100.0, "gap");
  args.add_string("--csv", "out.csv", "path");
  args.add_choice("--format", "text", {"text", "csv", "json"}, "format");
  args.add_bool("--verbose", "chatty");
  return args;
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  auto args = make_parser();
  args.parse_tokens({});
  EXPECT_EQ(args.get_int("--reps"), 20);
  EXPECT_EQ(args.get_uint("--seed"), 2022u);
  EXPECT_DOUBLE_EQ(args.get_double("--gap"), 100.0);
  EXPECT_EQ(args.get_string("--csv"), "out.csv");
  EXPECT_FALSE(args.get_bool("--verbose"));
  EXPECT_FALSE(args.provided("--reps"));
}

TEST(ArgParser, ParsesFlagInFinalPosition) {
  // The seed bench loop `for (i = 1; i < argc - 1; ++i)` never reached the
  // final pair; "--threads 2" at the end was silently dropped.
  auto args = make_parser();
  args.parse_tokens({"--reps", "5", "--threads", "2"});
  EXPECT_EQ(args.get_int("--reps"), 5);
  EXPECT_EQ(args.get_int("--threads"), 2);
  EXPECT_TRUE(args.provided("--threads"));
}

TEST(ArgParser, ParsesEqualsSyntax) {
  auto args = make_parser();
  args.parse_tokens({"--reps=7", "--format=json", "--gap=62.5"});
  EXPECT_EQ(args.get_int("--reps"), 7);
  EXPECT_EQ(args.get_string("--format"), "json");
  EXPECT_DOUBLE_EQ(args.get_double("--gap"), 62.5);
}

TEST(ArgParser, RejectsMalformedNumbers) {
  // atoi("banana") == 0; the strict parser must throw instead.
  EXPECT_THROW(make_parser().parse_tokens({"--reps", "banana"}),
               cli::ArgError);
  EXPECT_THROW(make_parser().parse_tokens({"--reps", "3x"}), cli::ArgError);
  EXPECT_THROW(make_parser().parse_tokens({"--reps", ""}), cli::ArgError);
  EXPECT_THROW(make_parser().parse_tokens({"--seed", "-1"}), cli::ArgError);
  EXPECT_THROW(make_parser().parse_tokens({"--gap", "1.2.3"}), cli::ArgError);
}

TEST(ArgParser, AcceptsNegativeIntoSigned) {
  auto args = make_parser();
  args.parse_tokens({"--reps", "-3"});
  EXPECT_EQ(args.get_int("--reps"), -3);
}

TEST(ArgParser, EnforcesDeclaredBounds) {
  auto bounded = []() {
    cli::ArgParser args("prog", "bounded");
    args.add_int("--reps", 1, "repetitions", 1, 1000000);
    return args;
  };
  auto ok = bounded();
  ok.parse_tokens({"--reps", "1000000"});
  EXPECT_EQ(ok.get_int("--reps"), 1000000);
  EXPECT_THROW(bounded().parse_tokens({"--reps", "0"}), cli::ArgError);
  EXPECT_THROW(bounded().parse_tokens({"--reps", "-1"}), cli::ArgError);
  // 2^33 + 1 would wrap to 1 if truncated to int before the check; the
  // bound is enforced on the long long so it must be rejected outright.
  EXPECT_THROW(bounded().parse_tokens({"--reps", "8589934593"}),
               cli::ArgError);
  EXPECT_THROW(bounded().parse_tokens({"--reps", "1000001"}), cli::ArgError);
}

TEST(ArgParser, RejectsUnknownAndPositionalTokens) {
  EXPECT_THROW(make_parser().parse_tokens({"--nope", "1"}), cli::ArgError);
  EXPECT_THROW(make_parser().parse_tokens({"stray"}), cli::ArgError);
}

TEST(ArgParser, RejectsMissingValue) {
  EXPECT_THROW(make_parser().parse_tokens({"--reps"}), cli::ArgError);
  EXPECT_THROW(make_parser().parse_tokens({"--reps", "1", "--csv"}),
               cli::ArgError);
}

TEST(ArgParser, RejectsChoiceOutsideSet) {
  EXPECT_THROW(make_parser().parse_tokens({"--format", "xml"}),
               cli::ArgError);
}

TEST(ArgParser, BoolFlagsTakeNoValue) {
  auto args = make_parser();
  args.parse_tokens({"--verbose", "--reps", "2"});
  EXPECT_TRUE(args.get_bool("--verbose"));
  EXPECT_EQ(args.get_int("--reps"), 2);
  EXPECT_THROW(make_parser().parse_tokens({"--verbose=1"}), cli::ArgError);
}

TEST(ArgParser, HelpIsAlwaysRecognized) {
  auto args = make_parser();
  args.parse_tokens({"--help"});
  EXPECT_TRUE(args.help_requested());
  EXPECT_NE(args.usage().find("--reps"), std::string::npos);
}

TEST(Report, EnforcesRowWidth) {
  cli::Report report("r", {"a", "b"});
  EXPECT_THROW(report.add_row({std::string("only-one")}),
               std::invalid_argument);
  report.add_row({std::string("x"), 1.5});
  EXPECT_EQ(report.rows().size(), 1u);
}

TEST(Report, WritesCsvWithHeader) {
  cli::Report report("r", {"name", "value", "flag"});
  report.add_row({std::string("alpha"), 1.5, true});
  report.add_row({std::string("beta,comma"), -2.0, false});
  std::ostringstream out;
  report.write_csv(out);
  const std::string csv = out.str();
  EXPECT_EQ(csv.find("name,value,flag\n"), 0u);
  EXPECT_NE(csv.find("alpha,1.5,1"), std::string::npos);
  EXPECT_NE(csv.find("\"beta,comma\""), std::string::npos);
}

TEST(Report, WritesWellFormedJson) {
  cli::Report report("quote\"name", {"s", "n", "i", "b"});
  report.add_row({std::string("line\nbreak"), 0.5, 7LL, true});
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"report\":\"quote\\\"name\""), 0u);
  EXPECT_NE(json.find("\"s\":\"line\\nbreak\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"i\":7"), std::string::npos);
  EXPECT_NE(json.find("\"b\":true"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(Report, FormatRoundTrip) {
  EXPECT_EQ(cli::parse_format("csv"), cli::Format::kCsv);
  EXPECT_EQ(cli::parse_format("json"), cli::Format::kJson);
  EXPECT_EQ(cli::parse_format("text"), cli::Format::kText);
  EXPECT_THROW(cli::parse_format("xml"), std::invalid_argument);
  EXPECT_EQ(cli::to_string(cli::Format::kJson), "json");
}

TEST(Campaigns, RegistryCoversThePaperArtifacts) {
  for (const char* name : {"table4", "table5", "fig7", "fig8", "run"}) {
    const auto* cmd = cli::find_campaign_command(name);
    ASSERT_NE(cmd, nullptr) << name;
    EXPECT_FALSE(cmd->paper_ref.empty());
    EXPECT_NE(cmd->run, nullptr);
  }
  EXPECT_EQ(cli::find_campaign_command("table9"), nullptr);
}

TEST(Campaigns, Fig7ReportIsStructuredAndDecimated) {
  cli::CampaignOptions options;
  options.seed = 7;
  options.decimate = 100;  // 5000-step run -> ~50 rows
  const auto report = cli::fig7_report(options, nullptr);
  ASSERT_EQ(report.columns().front(), "time");
  ASSERT_GE(report.rows().size(), 10u);
  ASSERT_LE(report.rows().size(), 200u);
  // Attack-free run: the attack_active column must be false everywhere.
  const auto attack_col =
      std::find(report.columns().begin(), report.columns().end(),
                "attack_active") -
      report.columns().begin();
  for (const auto& row : report.rows())
    EXPECT_FALSE(std::get<bool>(row[static_cast<std::size_t>(attack_col)]));
}

TEST(Campaigns, UnknownSubcommandFailsWithUsageError) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command("nope", {}, out, err), 2);
  EXPECT_NE(err.str().find("unknown subcommand"), std::string::npos);
}

TEST(Campaigns, MalformedFlagFailsLoudly) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command("table4", {"--reps", "banana"}, out,
                                      err),
            2);
  EXPECT_NE(err.str().find("--reps"), std::string::npos);
}

TEST(Campaigns, IntFlagsThatWouldTruncateExitTwo) {
  // Regression guard for the long long -> int narrowing at the option
  // sites: 2^32+1 parsed as long long would wrap to 1 through a bare
  // static_cast<int>, silently running a 1-rep campaign. The range check
  // on the wide value must reject it with a diagnostic naming the flag.
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command("table4", {"--reps", "4294967297"}, out,
                                      err),
            2);
  EXPECT_NE(err.str().find("--reps"), std::string::npos);
  std::ostringstream out7, err7;
  EXPECT_EQ(cli::run_campaign_command("fig7", {"--decimate", "4294967297"},
                                      out7, err7),
            2);
  EXPECT_NE(err7.str().find("--decimate"), std::string::npos);
}

TEST(Campaigns, SubcommandHelpExitsZero) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command("fig8", {"--help"}, out, err), 0);
  EXPECT_NE(out.str().find("--format"), std::string::npos);
}

TEST(Campaigns, ResumeRequiresCheckpointPath) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command("table4", {"--resume"}, out, err), 2);
  EXPECT_NE(err.str().find("--checkpoint"), std::string::npos);
}

TEST(Campaigns, BenchFig8RejectsCheckpointInsteadOfIgnoringIt) {
  // The fig8 sweep has no checkpoint path; silently accepting the flag
  // would leave an hour-long run unprotected while claiming otherwise.
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command(
                "bench", {"--campaign", "fig8", "--checkpoint", "f8.ckpt"},
                out, err),
            2);
  EXPECT_NE(err.str().find("not supported"), std::string::npos);
}

TEST(Campaigns, CheckpointFlagsOnlyOnGridCampaigns) {
  // fig7 is a single simulation; it must not advertise --checkpoint.
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command("fig7", {"--help"}, out, err), 0);
  EXPECT_EQ(out.str().find("--checkpoint"), std::string::npos);
  std::ostringstream out4, err4;
  EXPECT_EQ(cli::run_campaign_command("table4", {"--help"}, out4, err4), 0);
  EXPECT_NE(out4.str().find("--checkpoint"), std::string::npos);
  EXPECT_NE(out4.str().find("--resume"), std::string::npos);
}

int count_lines(const std::string& text) {
  return static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

TEST(Campaigns, DecileProgressEmitsFinalLineExactlyOnce) {
  // Regression: `completed == total` used to early-return, so the 100%
  // line never printed — and a campaign that fits in one chunk printed
  // nothing at all.
  std::ostringstream out;
  const auto progress = cli::decile_progress(&out, "t");
  progress({64, 640});
  progress({640, 640});
  progress({640, 640});  // duplicate completion callbacks stay deduped
  const std::string text = out.str();
  EXPECT_EQ(count_lines(text), 2);
  EXPECT_NE(text.find("[t] 640/640 sims"), std::string::npos);
}

TEST(Campaigns, DecileProgressSingleChunkCampaignStillReports) {
  std::ostringstream out;
  const auto progress = cli::decile_progress(&out, "t");
  progress({6, 6});  // one chunk: first and only callback is completion
  EXPECT_EQ(out.str(), "[t] 6/6 sims\n");
}

TEST(Campaigns, DecileProgressCrossingSeveralDecilesEmitsOneLine) {
  std::ostringstream out;
  const auto progress = cli::decile_progress(&out, "t");
  progress({10, 100});  // decile 1
  progress({95, 100});  // jumps deciles 2..9 in one chunk
  EXPECT_EQ(count_lines(out.str()), 2);
  progress({96, 100});  // still decile 9: no new line
  EXPECT_EQ(count_lines(out.str()), 2);
  progress({100, 100});
  EXPECT_EQ(count_lines(out.str()), 3);
}

// In the Campaign suite so the threaded sanitizer legs run it: closures
// for different grids report from different threads to one stream, as a
// table's grids do inside one streaming call.
TEST(Campaign, DecileProgressClosuresShareOneStreamSafely) {
  constexpr int kGrids = 4;
  constexpr std::size_t kTotal = 100;
  std::ostringstream out;
  std::vector<exp::CampaignProgressFn> closures;
  for (int g = 0; g < kGrids; ++g)
    closures.push_back(cli::decile_progress(&out, "g" + std::to_string(g)));
  std::latch start(kGrids);
  std::vector<std::thread> threads;
  for (int g = 0; g < kGrids; ++g) {
    threads.emplace_back([&start, &closures, g] {
      start.arrive_and_wait();
      for (std::size_t done = 1; done <= kTotal; ++done)
        closures[static_cast<std::size_t>(g)]({done, kTotal});
    });
  }
  for (std::thread& t : threads) t.join();

  // Per grid, each line whole and in order: the first completed sim
  // (decile 0), then every tenth.
  std::vector<std::size_t> seen(kGrids, 0);
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    ASSERT_EQ(line.rfind("[g", 0), 0u) << line;
    const std::size_t g = static_cast<std::size_t>(line[2] - '0');
    ASSERT_LT(g, seen.size()) << line;
    const std::size_t done = seen[g] == 0 ? 1 : seen[g] * kTotal / 10;
    EXPECT_EQ(line, "[g" + std::to_string(g) + "] " + std::to_string(done) +
                        "/100 sims");
    ++seen[g];
  }
  for (const std::size_t n : seen) EXPECT_EQ(n, 11u);
}

TEST(Campaigns, DecileProgressNullStreamAndEmptyGridAreSafe) {
  EXPECT_FALSE(cli::decile_progress(nullptr, "t"));
  std::ostringstream out;
  const auto progress = cli::decile_progress(&out, "t");
  progress({0, 0});
  progress({0, 10});  // nothing completed yet: nothing to say
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
