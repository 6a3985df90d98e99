#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace chameleon {
namespace {

TEST(Config, SetAndGetTyped) {
  Config c;
  c.set("alpha", "12");
  c.set("beta", "3.5");
  c.set("gamma", "true");
  c.set("name", "ycsb");
  EXPECT_EQ(c.get_int("alpha", 0), 12);
  EXPECT_DOUBLE_EQ(c.get_double("beta", 0.0), 3.5);
  EXPECT_TRUE(c.get_bool("gamma", false));
  EXPECT_EQ(c.get_string("name", ""), "ycsb");
}

TEST(Config, DefaultsWhenMissing) {
  Config c;
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(c.get_bool("missing", false));
  EXPECT_EQ(c.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(c.contains("missing"));
}

TEST(Config, ParseArgs) {
  const char* argv[] = {"prog", "servers=50", "scale=0.5", "scheme=chameleon",
                        "--workers=4"};
  Config c;
  c.parse_args(5, argv);
  EXPECT_EQ(c.get_int("servers", 0), 50);
  EXPECT_DOUBLE_EQ(c.get_double("scale", 0.0), 0.5);
  EXPECT_EQ(c.get_string("scheme", ""), "chameleon");
  EXPECT_EQ(c.get_int("workers", 0), 4);  // leading dashes are stripped
}

TEST(Config, ParseArgsRejectsMalformed) {
  const char* bad1[] = {"prog", "noequals"};
  const char* bad2[] = {"prog", "=value"};
  Config c;
  EXPECT_THROW(c.parse_args(2, bad1), std::invalid_argument);
  EXPECT_THROW(c.parse_args(2, bad2), std::invalid_argument);
}

TEST(Config, BooleanSpellings) {
  Config c;
  for (const char* t : {"1", "true", "yes", "on"}) {
    c.set("flag", t);
    EXPECT_TRUE(c.get_bool("flag", false)) << t;
  }
  for (const char* f : {"0", "false", "no", "off"}) {
    c.set("flag", f);
    EXPECT_FALSE(c.get_bool("flag", true)) << f;
  }
  c.set("flag", "maybe");
  EXPECT_THROW(c.get_bool("flag", false), std::invalid_argument);
}

TEST(Config, EnvOverridesValue) {
  ::setenv("CHAMELEON_TEST_KNOB", "99", 1);
  Config c;
  c.set("test_knob", "1");
  EXPECT_EQ(c.get_int("test_knob", 0), 99);
  ::unsetenv("CHAMELEON_TEST_KNOB");
  EXPECT_EQ(c.get_int("test_knob", 0), 1);
}

TEST(Config, EnvNameMapsDotsAndDashes) {
  ::setenv("CHAMELEON_A_B_C", "x", 1);
  EXPECT_EQ(Config::from_env("a.b-c").value_or(""), "x");
  ::unsetenv("CHAMELEON_A_B_C");
}

TEST(Config, ScaleFromEnv) {
  ::unsetenv("CHAMELEON_SCALE");
  EXPECT_DOUBLE_EQ(scale_from_env(0.25), 0.25);
  ::setenv("CHAMELEON_SCALE", "0.75", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(0.25), 0.75);
  ::unsetenv("CHAMELEON_SCALE");
}

TEST(Config, LastSetWins) {
  Config c;
  c.set("k", "1");
  c.set("k", "2");
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, UnreadKeysListsWhatNoLookupAskedFor) {
  Config c;
  c.set("workers", "4");
  c.set("peers", "2@h:1");
  c.set("listen", "127.0.0.1:0");
  c.set("verbose", "1");
  EXPECT_EQ(c.unread_keys(),
            (std::vector<std::string>{"listen", "peers", "verbose",
                                      "workers"}));
  // Every typed getter and contains() count as a read, hit or miss.
  EXPECT_EQ(c.get_int("workers", 2), 4);
  EXPECT_EQ(c.get_string("listen", ""), "127.0.0.1:0");
  EXPECT_TRUE(c.contains("verbose"));
  EXPECT_FALSE(c.get_bool("heartbeat_ms_typo", false));
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"peers"}));
}

}  // namespace
}  // namespace chameleon
