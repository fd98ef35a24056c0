#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pcq::util {
namespace {

/// Builds an argv that stays alive for the Flags constructor.
class ArgvFixture {
 public:
  explicit ArgvFixture(std::vector<std::string> args) : args_(std::move(args)) {
    for (auto& a : args_) ptrs_.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

const std::map<std::string, std::string> kSpec = {
    {"scale", "graph scale"},   {"threads", "thread list"},
    {"verbose", "chatty"},      {"seed", "rng seed"},
    {"name", "free string"},
};

TEST(Flags, SpaceSeparatedValue) {
  ArgvFixture a({"prog", "--scale", "0.5"});
  Flags flags(a.argc(), a.argv(), kSpec);
  EXPECT_TRUE(flags.has("scale"));
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 1.0), 0.5);
}

TEST(Flags, EqualsSeparatedValue) {
  ArgvFixture a({"prog", "--seed=42"});
  Flags flags(a.argc(), a.argv(), kSpec);
  EXPECT_EQ(flags.get_int("seed", 0), 42);
}

TEST(Flags, DefaultsWhenAbsent) {
  ArgvFixture a({"prog"});
  Flags flags(a.argc(), a.argv(), kSpec);
  EXPECT_FALSE(flags.has("scale"));
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 0.25), 0.25);
  EXPECT_EQ(flags.get_int("seed", 7), 7);
  EXPECT_EQ(flags.get("name", "dflt"), "dflt");
  EXPECT_FALSE(flags.get_bool("verbose", false));
}

TEST(Flags, BareBooleanFlag) {
  ArgvFixture a({"prog", "--verbose"});
  Flags flags(a.argc(), a.argv(), kSpec);
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Flags, IntListParsing) {
  ArgvFixture a({"prog", "--threads", "1,4,8,16,64"});
  Flags flags(a.argc(), a.argv(), kSpec);
  EXPECT_EQ(flags.get_int_list("threads", {}),
            (std::vector<int>{1, 4, 8, 16, 64}));
}

TEST(Flags, IntListFallback) {
  ArgvFixture a({"prog"});
  Flags flags(a.argc(), a.argv(), kSpec);
  EXPECT_EQ(flags.get_int_list("threads", {2, 3}), (std::vector<int>{2, 3}));
}

TEST(Flags, PositionalArguments) {
  ArgvFixture a({"prog", "input.txt", "--seed", "1", "more.txt"});
  Flags flags(a.argc(), a.argv(), kSpec);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.txt", "more.txt"}));
}

TEST(FlagsDeathTest, UnknownFlagAborts) {
  ArgvFixture a({"prog", "--bogus", "1"});
  EXPECT_EXIT(Flags(a.argc(), a.argv(), kSpec), testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(Flags, HostPortSplitsAtLastColon) {
  const HostPort hp = parse_host_port_or_exit("127.0.0.1:65535");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 65535);
  EXPECT_EQ(parse_host_port_or_exit("::1:1").host, "::1");
}

TEST(FlagsDeathTest, BadHostPortExitsWithUsageError) {
  for (const char* bad : {"127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:0",
                          "127.0.0.1:", "127.0.0.1:-1", "127.0.0.1:80x",
                          ":80", "localhost"})
    EXPECT_EXIT(parse_host_port_or_exit(bad), testing::ExitedWithCode(2),
                std::string("got '") + bad + "'");
}

}  // namespace
}  // namespace pcq::util
