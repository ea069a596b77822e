#include <gtest/gtest.h>

#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/strfmt.hpp"
#include "util/timer.hpp"

namespace moldsched {
namespace {

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("n=%d r=%.2f s=%s", 7, 1.5, "x"), "n=7 r=1.50 s=x");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Strfmt, LongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(strfmt("%s", big.c_str()).size(), 500u);
}

TEST(Csv, PlainRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
}

TEST(Cli, ParsesKeyValueForms) {
  // Note: a bare `--flag` followed by a non-option token would consume the
  // token as its value (greedy `--key value` form); boolean flags therefore
  // go last or use `--flag=1`.
  const char* argv[] = {"prog", "--n", "42", "--eps=0.5", "pos", "--flag"};
  ArgParser args(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 0.5);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, GreedyValueConsumption) {
  const char* argv[] = {"prog", "--flag", "pos"};
  ArgParser args(3, argv);
  EXPECT_EQ(args.get_string("flag", ""), "pos");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  ArgParser args(1, argv);
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_EQ(args.get_string("missing", "d"), "d");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(Cli, IntList) {
  const char* argv[] = {"prog", "--sizes", "25,50,100"};
  ArgParser args(3, argv);
  const auto sizes = args.get_int_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 25);
  EXPECT_EQ(sizes[1], 50);
  EXPECT_EQ(sizes[2], 100);
  const auto fallback = args.get_int_list("other", {1, 2});
  EXPECT_EQ(fallback.size(), 2u);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a", "true", "--b", "0", "--c", "off"};
  ArgParser args(7, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
}

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  log_info("dropped (not asserted, just must not crash)");
  set_log_level(before);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  // Busy-wait a tiny amount.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

}  // namespace
}  // namespace moldsched
