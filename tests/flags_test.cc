// Tests for the eval::Flags argv parser used by benches and dcmt_cli.

#include <string>

#include <gtest/gtest.h>

#include "eval/flags.h"

namespace dcmt {
namespace {

TEST(FlagsTest, DefaultsWhenNoArgs) {
  char prog[] = "prog";
  char* argv[] = {prog};
  const eval::Flags flags(1, argv, {{"epochs", "4"}, {"lr", "0.01"}});
  EXPECT_EQ(flags.GetInt("epochs"), 4);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr"), 0.01);
}

TEST(FlagsTest, EqualsForm) {
  char prog[] = "prog";
  char arg[] = "--epochs=7";
  char* argv[] = {prog, arg};
  const eval::Flags flags(2, argv, {{"epochs", "4"}});
  EXPECT_EQ(flags.GetInt("epochs"), 7);
}

TEST(FlagsTest, SpaceForm) {
  char prog[] = "prog";
  char name[] = "--lr";
  char value[] = "0.5";
  char* argv[] = {prog, name, value};
  const eval::Flags flags(3, argv, {{"lr", "0.01"}});
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr"), 0.5);
}

TEST(FlagsTest, ListParsing) {
  char prog[] = "prog";
  char arg[] = "--datasets=ae-es,ae-fr,ali-ccp";
  char* argv[] = {prog, arg};
  const eval::Flags flags(2, argv, {{"datasets", ""}});
  const std::vector<std::string> list = flags.GetList("datasets");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "ae-es");
  EXPECT_EQ(list[2], "ali-ccp");
}

TEST(FlagsTest, EmptyListIsEmpty) {
  char prog[] = "prog";
  char* argv[] = {prog};
  const eval::Flags flags(1, argv, {{"datasets", ""}});
  EXPECT_TRUE(flags.GetList("datasets").empty());
}

TEST(FlagsTest, LastValueWins) {
  char prog[] = "prog";
  char a1[] = "--epochs=1";
  char a2[] = "--epochs=9";
  char* argv[] = {prog, a1, a2};
  const eval::Flags flags(3, argv, {{"epochs", "4"}});
  EXPECT_EQ(flags.GetInt("epochs"), 9);
}

/// Parses `--name=value` against a one-flag spec and reads it as an int.
int ParseIntFlag(const char* name, const char* value) {
  char prog[] = "prog";
  std::string arg = std::string("--") + name + "=" + value;
  char* argv[] = {prog, arg.data()};
  return eval::Flags(2, argv, {{name, "4"}}).GetInt(name);
}

TEST(FlagsTest, NegativeIntParses) {
  EXPECT_EQ(ParseIntFlag("threads", "-1"), -1);
}

TEST(FlagsDeathTest, NonNumericIntExits) {
  EXPECT_EXIT(ParseIntFlag("exposures", "abc"), ::testing::ExitedWithCode(2),
              "invalid value 'abc' for --exposures");
}

TEST(FlagsDeathTest, TrailingGarbageIntExits) {
  EXPECT_EXIT(ParseIntFlag("exposures", "12abc"), ::testing::ExitedWithCode(2),
              "invalid value '12abc' for --exposures");
}

TEST(FlagsDeathTest, EmptyIntExits) {
  EXPECT_EXIT(ParseIntFlag("shard-rows", ""), ::testing::ExitedWithCode(2),
              "invalid value '' for --shard-rows");
}

TEST(FlagsDeathTest, OutOfRangeIntExits) {
  EXPECT_EXIT(ParseIntFlag("epochs", "99999999999"),
              ::testing::ExitedWithCode(2), "invalid value '99999999999'");
}

TEST(FlagsDeathTest, NonPositiveValueForPositiveIntExits) {
  for (const char* value : {"0", "-3"}) {
    char prog[] = "prog";
    std::string arg = std::string("--batch=") + value;
    char* argv[] = {prog, arg.data()};
    const eval::Flags flags(2, argv, {{"batch", "1024"}});
    EXPECT_EXIT(flags.GetPositiveInt("batch"), ::testing::ExitedWithCode(2),
                "invalid value '" + std::string(value) +
                    "' for --batch \\(expected a positive integer\\)");
  }
}

TEST(FlagsDeathTest, MalformedDoubleExits) {
  char prog[] = "prog";
  char arg[] = "--lr=0.5x";
  char* argv[] = {prog, arg};
  const eval::Flags flags(2, argv, {{"lr", "0.01"}});
  EXPECT_EXIT(flags.GetDouble("lr"), ::testing::ExitedWithCode(2),
              "invalid value '0.5x' for --lr");
}

TEST(FlagsDeathTest, BadValueListsAcceptedFlagsWithDefaults) {
  char prog[] = "prog";
  char arg[] = "--epochs=abc";
  char* argv[] = {prog, arg};
  const eval::Flags flags(2, argv, {{"epochs", "4"}, {"lr", "0.01"}});
  EXPECT_EXIT(flags.GetInt("epochs"), ::testing::ExitedWithCode(2),
              "--epochs \\(default: 4\\)");
  EXPECT_EXIT(flags.GetInt("epochs"), ::testing::ExitedWithCode(2),
              "--lr \\(default: 0.01\\)");
}

TEST(FlagsDeathTest, UnknownFlagExits) {
  char prog[] = "prog";
  char arg[] = "--bogus=1";
  char* argv[] = {prog, arg};
  EXPECT_EXIT((eval::Flags(2, argv, {{"epochs", "4"}})),
              ::testing::ExitedWithCode(2), "unknown flag");
}

}  // namespace
}  // namespace dcmt
