#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <optional>

namespace repro {
namespace {

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7", "--flag"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_int_or("alpha", 0), 3);
  EXPECT_EQ(args.get_int_or("beta", 0), 7);
  EXPECT_TRUE(args.has_flag("flag"));
  EXPECT_FALSE(args.has_flag("missing"));
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_EQ(args.get_int_or("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double_or("x", 1.5), 1.5);
  EXPECT_EQ(args.get_or("s", "dflt"), "dflt");
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "pos1", "--k=v", "pos2"};
  const CliArgs args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
  EXPECT_EQ(args.program_name(), "prog");
}

TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--delta=0.25"};
  const CliArgs args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double_or("delta", 0.0), 0.25);
}

TEST(Cli, FlagFollowedByFlagIsBare) {
  const char* argv[] = {"prog", "--a", "--b=2"};
  const CliArgs args(3, argv);
  EXPECT_TRUE(args.has_flag("a"));
  EXPECT_EQ(args.get_or("a", "x"), "");
  EXPECT_EQ(args.get_int_or("b", 0), 2);
}

TEST(Cli, CheckedIntegerRejectsMalformedAndOutOfRangeValues) {
  const char* argv[] = {"prog",       "--ok=12",  "--neg=-1",
                        "--trail=2x", "--empty",  "--huge=99999999999999999999",
                        "--zero=0",   "--space= 3"};
  const CliArgs args(8, argv);
  EXPECT_EQ(args.get_int_in("ok", 5, 0, 100), 12);
  EXPECT_EQ(args.get_int_in("missing", 5, 0, 100), 5);
  // Inclusive bounds.
  EXPECT_EQ(args.get_int_in("zero", 5, 0, 100), 0);
  EXPECT_EQ(args.get_int_in("ok", 5, 0, 12), 12);
  EXPECT_EQ(args.get_int_in("ok", 5, 0, 11), std::nullopt);
  // A negative count must not wrap to a huge unsigned one.
  EXPECT_EQ(args.get_int_in("neg", 5, 0, 100), std::nullopt);
  EXPECT_EQ(args.get_int_in("neg", 5, -10, 100), -1);
  // Trailing or leading junk, no value, and overflow are all rejected.
  EXPECT_EQ(args.get_int_in("trail", 5, 0, 100), std::nullopt);
  EXPECT_EQ(args.get_int_in("space", 5, 0, 100), std::nullopt);
  EXPECT_EQ(args.get_int_in("empty", 5, 0, 100), std::nullopt);
  EXPECT_EQ(args.get_int_in("huge", 5, 0, LLONG_MAX), std::nullopt);
}

}  // namespace
}  // namespace repro
