// Unit tests for the dist building blocks (ctest label `dist`): peer-spec
// parsing and lazy port resolution, and the deterministic membership lease
// state machine. (The versioned replica blob codec lives in svc/wire and
// is covered by wire_peer_test.cpp.)
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "dist/membership.hpp"
#include "dist/peer.hpp"

namespace chameleon::dist {
namespace {

// --- peer specs --------------------------------------------------------------

TEST(PeerSpec, ParsesFixedPort) {
  const PeerSpec spec = parse_peer_spec("3@10.0.0.7:7421");
  EXPECT_EQ(spec.id, 3u);
  EXPECT_EQ(spec.host, "10.0.0.7");
  EXPECT_EQ(spec.port, 7421u);
  EXPECT_TRUE(spec.port_file.empty());
  EXPECT_EQ(format_peer_spec(spec), "3@10.0.0.7:7421");
}

TEST(PeerSpec, ParsesPortFileForm) {
  const PeerSpec spec = parse_peer_spec("1@127.0.0.1:@/tmp/n1-port.txt");
  EXPECT_EQ(spec.id, 1u);
  EXPECT_EQ(spec.port, 0u);
  EXPECT_EQ(spec.port_file, "/tmp/n1-port.txt");
  EXPECT_EQ(format_peer_spec(spec), "1@127.0.0.1:@/tmp/n1-port.txt");
}

TEST(PeerSpec, MalformedSpecsThrow) {
  EXPECT_THROW(parse_peer_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_peer_spec("nohost"), std::invalid_argument);
  EXPECT_THROW(parse_peer_spec("1@host"), std::invalid_argument);
  EXPECT_THROW(parse_peer_spec("x@host:1"), std::invalid_argument);
  EXPECT_THROW(parse_peer_spec("1@host:notaport"), std::invalid_argument);
  EXPECT_THROW(parse_peer_spec("1@:123"), std::invalid_argument);
  EXPECT_THROW(parse_peer_spec("1@host:99999"), std::invalid_argument);
}

TEST(PeerSpec, ListParsesAndRejectsDuplicates) {
  const auto list = parse_peer_list("1@a:1,2@b:@/f,3@c:3");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].port_file, "/f");
  EXPECT_THROW(parse_peer_list("1@a:1,1@b:2"), std::invalid_argument);
  EXPECT_THROW(parse_peer_list(""), std::invalid_argument);
}

TEST(PeerSpec, ResolvePortReadsAndRereadsFile) {
  const std::string path =
      ::testing::TempDir() + "resolve_port_test_port.txt";
  std::remove(path.c_str());
  PeerSpec spec;
  spec.id = 1;
  spec.port_file = path;
  EXPECT_FALSE(resolve_port(spec).has_value());  // file missing
  {
    std::ofstream out(path);
    out << "7421\n";
  }
  ASSERT_TRUE(resolve_port(spec).has_value());
  EXPECT_EQ(*resolve_port(spec), 7421u);
  {
    // A restarted server rewrites the file; re-resolution must see it.
    std::ofstream out(path);
    out << "7500\n";
  }
  EXPECT_EQ(*resolve_port(spec), 7500u);
  std::remove(path.c_str());
}

// --- membership --------------------------------------------------------------

TEST(Membership, LeaseStateMachineIsDeterministic) {
  Membership m({.suspect_after = 2, .dead_after = 4});
  m.add_peer(7);
  EXPECT_EQ(m.state_of(7), PeerState::kUnknown);
  EXPECT_FALSE(m.settled());
  EXPECT_FALSE(m.is_live(7));

  EXPECT_TRUE(m.probe_ok(7));  // kUnknown -> kAlive
  EXPECT_EQ(m.state_of(7), PeerState::kAlive);
  EXPECT_TRUE(m.settled());
  EXPECT_TRUE(m.is_live(7));

  EXPECT_FALSE(m.probe_missed(7));  // 1 miss: still alive
  EXPECT_EQ(m.state_of(7), PeerState::kAlive);
  EXPECT_TRUE(m.probe_missed(7));  // 2nd miss: suspect
  EXPECT_EQ(m.state_of(7), PeerState::kSuspect);
  EXPECT_FALSE(m.is_live(7));
  EXPECT_FALSE(m.probe_missed(7));  // 3rd miss: still suspect
  EXPECT_TRUE(m.probe_missed(7));  // 4th miss: dead
  EXPECT_EQ(m.state_of(7), PeerState::kDead);

  EXPECT_EQ(m.rejoins_total(), 0u);
  EXPECT_TRUE(m.probe_ok(7));  // rejoin
  EXPECT_EQ(m.state_of(7), PeerState::kAlive);
  EXPECT_EQ(m.rejoins_total(), 1u);
}

TEST(Membership, SuspectBlipAbsorbedWithoutRejoin) {
  Membership m({.suspect_after = 2, .dead_after = 4});
  m.add_peer(1);
  m.probe_ok(1);
  m.probe_missed(1);
  m.probe_missed(1);
  ASSERT_EQ(m.state_of(1), PeerState::kSuspect);
  EXPECT_TRUE(m.probe_ok(1));
  EXPECT_EQ(m.state_of(1), PeerState::kAlive);
  EXPECT_EQ(m.rejoins_total(), 0u);  // a blip is not a rejoin
}

// The view's version is its transition count: it moves only when some
// peer's state does.
TEST(Membership, ViewVersionBumpsOnlyOnTransitions) {
  Membership m;
  m.add_peer(1);
  EXPECT_EQ(m.transitions_total(), 0u);
  m.probe_ok(1);  // kUnknown -> kAlive
  EXPECT_EQ(m.transitions_total(), 1u);
  m.probe_ok(1);  // steady state: no transition
  EXPECT_EQ(m.transitions_total(), 1u);
  m.probe_missed(1);  // below suspect threshold: no transition
  EXPECT_EQ(m.transitions_total(), 1u);
}

TEST(Membership, LiveIdsAscendingAndUnknownIdsIgnored) {
  Membership m;
  for (const std::uint32_t id : {5u, 1u, 3u}) m.add_peer(id);
  EXPECT_FALSE(m.probe_ok(99));  // not registered: ignored
  m.probe_ok(5);
  m.probe_ok(1);
  EXPECT_EQ(m.live_ids(), (std::vector<std::uint32_t>{1, 5}));
  EXPECT_EQ(m.all_ids(), (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_EQ(m.state_of(99), PeerState::kUnknown);
  EXPECT_THROW(m.add_peer(3), std::invalid_argument);
}

TEST(Membership, UnknownPeerDiesAfterEnoughMisses) {
  // A peer that NEVER answered still settles (to kDead) after dead_after
  // misses, so one crashed-at-boot node cannot wedge router startup.
  Membership m({.suspect_after = 2, .dead_after = 4});
  m.add_peer(2);
  for (int i = 0; i < 3; ++i) m.probe_missed(2);
  EXPECT_FALSE(m.settled());
  m.probe_missed(2);
  EXPECT_EQ(m.state_of(2), PeerState::kDead);
  EXPECT_TRUE(m.settled());
  // Its first answer is an arrival, not a rejoin: it was never alive.
  m.probe_ok(2);
  EXPECT_EQ(m.state_of(2), PeerState::kAlive);
  EXPECT_EQ(m.rejoins_total(), 0u);
  // A later death and return is a rejoin.
  for (int i = 0; i < 4; ++i) m.probe_missed(2);
  ASSERT_EQ(m.state_of(2), PeerState::kDead);
  m.probe_ok(2);
  EXPECT_EQ(m.rejoins_total(), 1u);
}

}  // namespace
}  // namespace chameleon::dist
