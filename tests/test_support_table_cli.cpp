#include <gtest/gtest.h>

#include <sstream>

#include "support/cli.h"
#include "support/table.h"

namespace fullweb::support {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "count"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name    count"), std::string::npos);
  EXPECT_NE(s.find("longer  22"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, SeparatorRendersRule) {
  Table t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // Three rules total: under the header and the explicit separator.
  std::size_t rules = 0;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line))
    if (line.find_first_not_of('-') == std::string::npos && !line.empty()) ++rules;
  EXPECT_EQ(rules, 2U);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvSkipsSeparators) {
  Table t({"a"});
  t.add_row({"1"});
  t.add_separator();
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a\n1\n");
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  CliFlags flags;
  flags.define("alpha", "1.0", "tail index");
  flags.define("name", "x", "label");
  const char* argv[] = {"prog", "--alpha", "2.5", "--name=web"};
  ASSERT_TRUE(flags.parse(4, argv));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha"), 2.5);
  EXPECT_EQ(flags.get("name"), "web");
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  CliFlags flags;
  flags.define("n", "42", "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("n"), 42);
}

TEST(Cli, BooleanFlagBareForm) {
  CliFlags flags;
  flags.define("verbose", "false", "chatty output");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Cli, UnknownFlagFailsParse) {
  CliFlags flags;
  flags.define("x", "1", "");
  const char* argv[] = {"prog", "--nope", "3"};
  EXPECT_FALSE(flags.parse(3, argv));
}

TEST(Cli, PositionalArgumentsCollected) {
  CliFlags flags;
  flags.define("x", "1", "");
  const char* argv[] = {"prog", "file1.log", "--x", "2", "file2.log"};
  ASSERT_TRUE(flags.parse(5, argv));
  ASSERT_EQ(flags.positional().size(), 2U);
  EXPECT_EQ(flags.positional()[0], "file1.log");
  EXPECT_EQ(flags.positional()[1], "file2.log");
}

TEST(Cli, UndeclaredGetThrows) {
  CliFlags flags;
  EXPECT_THROW((void)flags.get("missing"), std::invalid_argument);
}

TEST(CliDeathTest, MalformedNumberIsAUsageError) {
  CliFlags flags;
  flags.define("threads", "0", "worker threads");
  flags.define("scale", "1.0", "volume scale");
  flags.define("days", "7", "days of traffic");
  const char* argv[] = {"prog", "--threads", "2.5", "--scale=abc",
                        "--days", "0.5"};
  ASSERT_TRUE(flags.parse(6, argv));
  // The accessor decides the kind: 0.5 is a valid number...
  EXPECT_DOUBLE_EQ(flags.get_double("days"), 0.5);
  // ...but 2.5 is not an integer, and abc is not a number.
  EXPECT_EXIT((void)flags.get_int("threads"), testing::ExitedWithCode(2),
              "flag --threads expects an integer, got '2\\.5'");
  EXPECT_EXIT((void)flags.get_double("scale"), testing::ExitedWithCode(2),
              "flag --scale expects a number, got 'abc'");
}

TEST(CliDeathTest, CountBelowItsMinimumIsAUsageError) {
  CliFlags flags;
  flags.define("threads", "0", "worker threads");
  flags.define("reps", "3", "repetitions");
  flags.define("shards", "4", "shard count");
  const char* argv[] = {"prog", "--threads", "-1", "--reps=0", "--shards",
                        "0"};
  ASSERT_TRUE(flags.parse(6, argv));
  // A negative count must not wrap to a huge size...
  EXPECT_EXIT((void)flags.get_count("threads"), testing::ExitedWithCode(2),
              "flag --threads expects an integer >= 0, got '-1'");
  // ...a count below its own minimum is rejected...
  EXPECT_EXIT((void)flags.get_count("reps", 1), testing::ExitedWithCode(2),
              "flag --reps expects an integer >= 1, got '0'");
  // ...and zero is a valid count where the minimum allows it.
  EXPECT_EQ(flags.get_count("shards"), 0u);
}

}  // namespace
}  // namespace fullweb::support
