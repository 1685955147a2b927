#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace hetopt::util {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  return CliArgs(static_cast<int>(argv.size()), std::data(argv));
}

TEST(Cli, ParsesEqualsForm) {
  const auto args = make({"prog", "--size=42", "--name=human"});
  EXPECT_EQ(args.get("size", std::int64_t{0}), 42);
  EXPECT_EQ(args.get("name", std::string{}), "human");
}

TEST(Cli, ParsesSpaceForm) {
  const auto args = make({"prog", "--iters", "100"});
  EXPECT_EQ(args.get("iters", std::int64_t{0}), 100);
}

TEST(Cli, BooleanFlags) {
  const auto args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_FALSE(args.flag("quiet"));
}

TEST(Cli, PositionalArguments) {
  const auto args = make({"prog", "input.fa", "--x=1", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.fa");
  EXPECT_EQ(args.positional()[1], "output.txt");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, FallbacksWhenMissing) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get("missing", std::string{"dflt"}), "dflt");
  EXPECT_DOUBLE_EQ(args.get("missing", 2.5), 2.5);
  EXPECT_EQ(args.get("missing", std::int64_t{7}), 7);
}

TEST(Cli, DoubleValues) {
  const auto args = make({"prog", "--frac=62.5"});
  EXPECT_DOUBLE_EQ(args.get("frac", 0.0), 62.5);
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  const auto args = make({"prog", "--a", "--b", "val"});
  EXPECT_TRUE(args.flag("a"));
  EXPECT_EQ(args.get("a", std::string{}), "true");
  EXPECT_EQ(args.get("b", std::string{}), "val");
}

// --- Seeded fuzzing ----------------------------------------------------------

constexpr std::array<std::string_view, 5> kNames = {"n", "seed", "frac", "", "a=b"};
constexpr std::array<std::string_view, 14> kValues = {
    "7",   "-3", "62.5", "1e400", "99999999999999999999", " 12 ", "0x10",
    "nan", "",   "--",   "-",     "1e-5",                 "abc",  "inf"};

/// A random argv element: a flag in either form, a bare value, or bytes.
std::string random_arg(Xoshiro256& rng) {
  const std::string name(kNames[rng.bounded(kNames.size())]);
  const std::string value(kValues[rng.bounded(kValues.size())]);
  switch (rng.bounded(5)) {
    case 0:
      return "--" + name;
    case 1:
      return "--" + name + "=" + value;
    case 2:
      return value;
    case 3:
      return "--";
    default: {
      std::string bytes(rng.bounded(8), '\0');
      for (char& c : bytes) c = static_cast<char>(1 + rng.bounded(255));
      return bytes;
    }
  }
}

/// "" when `get` returned, "invalid_argument" when it threw that, and the
/// exception otherwise.
template <typename Get>
std::string get_outcome(Get get) {
  try {
    (void)get();
    return "";
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::exception& e) {
    return std::string("other exception: ") + e.what();
  }
}

TEST(Cli, RandomArgvParsesAndNumericGettersReturnOrThrowInvalidArgument) {
  Xoshiro256 rng(0xC11ULL);
  for (int i = 0; i < 10000; ++i) {
    std::vector<std::string> storage{"prog"};
    const auto count = rng.bounded(7);
    for (std::uint64_t k = 0; k < count; ++k) storage.push_back(random_arg(rng));
    std::vector<const char*> argv;
    for (const std::string& arg : storage) argv.push_back(arg.c_str());
    const CliArgs args(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(args.program(), "prog");
    for (const std::string& p : args.positional()) {
      EXPECT_NE(p.rfind("--", 0), 0u) << "a flag was kept as positional: " << p;
    }
    for (const std::string_view name : kNames) {
      const std::string d = get_outcome([&] { return args.get(name, 1.5); });
      const std::string n = get_outcome([&] { return args.get(name, std::int64_t{4}); });
      ASSERT_TRUE(d.empty() || d == "invalid_argument") << d;
      ASSERT_TRUE(n.empty() || n == "invalid_argument") << n;
      if (!args.has(name)) {
        EXPECT_DOUBLE_EQ(args.get(name, 1.5), 1.5);
        EXPECT_EQ(args.get(name, std::int64_t{4}), 4);
        EXPECT_EQ(args.get(name, std::string("fallback")), "fallback");
      }
    }
  }
}

}  // namespace
}  // namespace hetopt::util
