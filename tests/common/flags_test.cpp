#include "common/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace bb {
namespace {

Flags make_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, EqualsSyntax) {
  const auto f = make_flags({"--instructions=123", "--workload=mcf"});
  EXPECT_EQ(f.get_u64("instructions", 0), 123u);
  EXPECT_EQ(f.get_string("workload", ""), "mcf");
}

TEST(Flags, SpaceSyntax) {
  const auto f = make_flags({"--workload", "xz", "--scale", "2.5"});
  EXPECT_EQ(f.get_string("workload", ""), "xz");
  EXPECT_DOUBLE_EQ(f.get_double("scale", 0), 2.5);
}

TEST(Flags, NamesListsEveryFlagSorted) {
  const auto f = make_flags({"--workload=mcf", "pos", "--csv", "--a", "1"});
  EXPECT_EQ(f.names(), (std::vector<std::string>{"a", "csv", "workload"}));
}

TEST(Flags, BareSwitch) {
  const auto f = make_flags({"--verbose", "--n=1"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_FALSE(f.has("quiet"));
  EXPECT_EQ(f.get_u64("n", 0), 1u);
}

TEST(Flags, BareSwitchBeforeAnotherFlag) {
  const auto f = make_flags({"--fast", "--workload=mcf"});
  EXPECT_TRUE(f.has("fast"));
  EXPECT_EQ(f.get_string("fast", "x"), "");
  EXPECT_EQ(f.get_string("workload", ""), "mcf");
}

TEST(Flags, Positional) {
  const auto f = make_flags({"alpha", "--k=1", "beta"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "alpha");
  EXPECT_EQ(f.positional()[1], "beta");
}

TEST(Flags, FallbacksOnMissingThrowsOnUnparsable) {
  const auto f = make_flags({"--n=notanumber", "--bare"});
  EXPECT_THROW(f.get_u64("n", 42), std::invalid_argument);
  EXPECT_THROW(f.get_double("n", 1.5), std::invalid_argument);
  EXPECT_EQ(f.get_u64("absent", 7), 7u);
  EXPECT_EQ(f.get_u64("bare", 7), 7u);
  EXPECT_DOUBLE_EQ(f.get_double("absent", 1.5), 1.5);
  EXPECT_EQ(f.get_string("absent", "dflt"), "dflt");
}

TEST(Flags, U64RejectsPrefixesSignsAndOverflow) {
  const auto f = make_flags({"--exp=2e6", "--neg=-1", "--plus=+1",
                             "--tail=12abc", "--blank= 5",
                             "--big=18446744073709551616",
                             "--max=18446744073709551615"});
  for (const char* name : {"exp", "neg", "plus", "tail", "blank", "big"}) {
    EXPECT_THROW(f.get_u64(name, 0), std::invalid_argument) << name;
  }
  EXPECT_EQ(f.get_u64("max", 0), 18446744073709551615ull);
}

TEST(Flags, DoubleRejectsTrailingTextAndNonFinite) {
  const auto f = make_flags({"--tail=1.5x", "--blank= 1", "--inf=inf",
                             "--nan=nan", "--huge=1e999", "--exp=1e-9",
                             "--neg=-2.5"});
  for (const char* name : {"tail", "blank", "inf", "nan", "huge"}) {
    EXPECT_THROW(f.get_double(name, 0), std::invalid_argument) << name;
  }
  EXPECT_DOUBLE_EQ(f.get_double("exp", 0), 1e-9);
  EXPECT_DOUBLE_EQ(f.get_double("neg", 0), -2.5);
}

TEST(Flags, ErrorNamesTheFlag) {
  const auto f = make_flags({"--jobs=abc"});
  try {
    f.get_u64("jobs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs=abc"), std::string::npos)
        << e.what();
  }
}

TEST(Flags, EmptyArgv) {
  const auto f = make_flags({});
  EXPECT_TRUE(f.positional().empty());
  EXPECT_FALSE(f.has("anything"));
}

}  // namespace
}  // namespace bb
