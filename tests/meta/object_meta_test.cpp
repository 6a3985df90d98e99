#include "meta/object_meta.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.hpp"

namespace chameleon::meta {
namespace {

/// Eq 1 stepped one epoch at a time: the reference the closed form in
/// heat() and fold_heat() must match bit for bit.
double stepped_heat(double p, std::uint32_t w, Epoch gap) {
  for (Epoch e = 0; e < gap; ++e) {
    p = p / 2.0 + w;
    w = 0;
    if (p == 0.0) break;
  }
  return p + w;
}

/// Checks heat() and fold_heat() against the stepped recurrence, and that
/// folding part of the gap first changes nothing.
::testing::AssertionResult matches_stepped(double p, std::uint32_t w,
                                           Epoch gap, Epoch split) {
  constexpr Epoch kStart = 7;
  ObjectMeta m;
  m.popularity = p;
  m.writes_in_epoch = w;
  m.heat_epoch = kStart;
  const double want = stepped_heat(p, w, gap);
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  if (bits(m.heat(kStart + gap)) != bits(want)) {
    return ::testing::AssertionFailure()
           << "heat: p=" << std::hexfloat << p << " w=" << w << " gap=" << gap
           << " got " << m.heat(kStart + gap) << " want " << want;
  }
  ObjectMeta folded = m;
  folded.fold_heat(kStart + split);
  folded.fold_heat(kStart + gap);
  if (bits(folded.popularity) != bits(want) || folded.writes_in_epoch != 0 ||
      folded.heat_epoch != kStart + gap) {
    return ::testing::AssertionFailure()
           << "fold: p=" << std::hexfloat << p << " w=" << w << " gap=" << gap
           << " split=" << split << " got " << folded.popularity;
  }
  return ::testing::AssertionSuccess();
}

TEST(RedState, IntermediateClassification) {
  EXPECT_FALSE(is_intermediate(RedState::kRep));
  EXPECT_FALSE(is_intermediate(RedState::kEc));
  EXPECT_TRUE(is_intermediate(RedState::kLateRep));
  EXPECT_TRUE(is_intermediate(RedState::kLateEc));
  EXPECT_TRUE(is_intermediate(RedState::kRepEwo));
  EXPECT_TRUE(is_intermediate(RedState::kEcEwo));
}

TEST(RedState, CurrentSchemeIsWhereTheBytesAre) {
  // late-REP means "currently EC, will become REP"; EWO keeps the scheme.
  EXPECT_EQ(current_scheme(RedState::kRep), RedState::kRep);
  EXPECT_EQ(current_scheme(RedState::kEc), RedState::kEc);
  EXPECT_EQ(current_scheme(RedState::kLateRep), RedState::kEc);
  EXPECT_EQ(current_scheme(RedState::kLateEc), RedState::kRep);
  EXPECT_EQ(current_scheme(RedState::kRepEwo), RedState::kRep);
  EXPECT_EQ(current_scheme(RedState::kEcEwo), RedState::kEc);
}

TEST(RedState, TargetSchemeIsPostTransition) {
  EXPECT_EQ(target_scheme(RedState::kRep), RedState::kRep);
  EXPECT_EQ(target_scheme(RedState::kEc), RedState::kEc);
  EXPECT_EQ(target_scheme(RedState::kLateRep), RedState::kRep);
  EXPECT_EQ(target_scheme(RedState::kLateEc), RedState::kEc);
  EXPECT_EQ(target_scheme(RedState::kRepEwo), RedState::kRep);
  EXPECT_EQ(target_scheme(RedState::kEcEwo), RedState::kEc);
}

TEST(RedState, NamesAreDistinct) {
  EXPECT_EQ(red_state_name(RedState::kRep), "REP");
  EXPECT_EQ(red_state_name(RedState::kEc), "EC");
  EXPECT_EQ(red_state_name(RedState::kLateRep), "late-REP");
  EXPECT_EQ(red_state_name(RedState::kEcEwo), "EC-EWO");
}

// --- Eq 1: p_k = p_{k-1}/2 + w_k ------------------------------------------

TEST(Popularity, SingleEpochWrites) {
  ObjectMeta m;
  m.note_write(0);
  m.note_write(0);
  m.note_write(0);
  // Heat during epoch 0 counts the in-flight writes at weight 1.
  EXPECT_DOUBLE_EQ(m.heat(0), 3.0);
}

TEST(Popularity, DecaysByHalfPerEpoch) {
  // heat(now) = p_{now-1} + (writes so far in epoch now); after epoch 0 the
  // folded heat halves each empty epoch.
  ObjectMeta m;
  for (int i = 0; i < 4; ++i) m.note_write(0);
  EXPECT_DOUBLE_EQ(m.heat(1), 4.0);  // p_0
  EXPECT_DOUBLE_EQ(m.heat(2), 2.0);  // p_1 = p_0/2
  EXPECT_DOUBLE_EQ(m.heat(3), 1.0);  // p_2
}

TEST(Popularity, RecurrenceMatchesClosedForm) {
  // w = {3, 5, 0, 2} over epochs 0..3; p_3 = 3/8 + 5/4 + 0/2 + 2 (Eq 1).
  ObjectMeta m;
  for (int i = 0; i < 3; ++i) m.note_write(0);
  for (int i = 0; i < 5; ++i) m.note_write(1);
  for (int i = 0; i < 2; ++i) m.note_write(3);
  EXPECT_DOUBLE_EQ(m.heat(4), 3.0 / 8 + 5.0 / 4 + 0.0 / 2 + 2.0);
  // Mid-epoch-3 view: p_2 plus the in-flight writes at weight 1.
  EXPECT_DOUBLE_EQ(m.heat(3), (3.0 / 2 + 5.0) / 2 + 2.0);
}

TEST(Popularity, ClosedFormMatchesSteppedRecurrenceBitForBit) {
  Xoshiro256 rng(26);
  for (int i = 0; i < 100'000; ++i) {
    // Mantissa x 2^e with e reaching into the subnormal range, and gaps past
    // the 1,075 epochs that take any heat to zero, so results land on both
    // sides of the smallest normal double.
    const double p =
        rng.next_below(8) == 0
            ? 0.0
            : std::ldexp(1.0 + rng.next_double(),
                         static_cast<int>(rng.next_below(1200)) - 1100);
    const auto w = static_cast<std::uint32_t>(
        rng.next_below(2) == 0 ? 0 : rng.next_below(1000));
    const auto gap = static_cast<Epoch>(1 + rng.next_below(2200));
    const auto split = static_cast<Epoch>(rng.next_below(gap + 1));
    ASSERT_TRUE(matches_stepped(p, w, gap, split));
  }
  // Edges: the smallest normal and subnormal heats, the largest finite
  // heat, heats that only become subnormal late, and the longest gap.
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTrue = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  for (const double p : {kMin, kMin * 3, kMin / 3, kTrue, kTrue * 5, kMax,
                         1.0, 3.0, 0x1.fffffffffffffp-1000}) {
    for (const Epoch gap : {1u, 2u, 52u, 53u, 1022u, 1023u, 1024u, 1074u,
                            1075u, 1076u, 2098u, 2099u, 4'000'000'000u}) {
      for (const std::uint32_t w : {0u, 1u}) {
        ASSERT_TRUE(matches_stepped(p, w, gap, gap / 2));
      }
    }
  }
}

TEST(Popularity, FoldHeatIsIdempotent) {
  ObjectMeta m;
  for (int i = 0; i < 8; ++i) m.note_write(0);
  m.fold_heat(2);
  const double after_first = m.popularity;
  m.fold_heat(2);
  EXPECT_DOUBLE_EQ(m.popularity, after_first);
  EXPECT_DOUBLE_EQ(m.heat(2), after_first);
}

TEST(Popularity, HeatConstOnConstObject) {
  ObjectMeta m;
  m.note_write(0);
  const ObjectMeta& cref = m;
  // heat() must not mutate: query twice across a gap.
  EXPECT_DOUBLE_EQ(cref.heat(5), cref.heat(5));
  EXPECT_EQ(m.heat_epoch, 0u);  // unchanged by const queries
}

TEST(Popularity, LongGapDecaysToNothing) {
  ObjectMeta m;
  m.note_write(0);
  m.fold_heat(200);
  EXPECT_LT(m.heat(200), 1e-30);
  EXPECT_EQ(m.heat_epoch, 200u);
}

TEST(Popularity, NoteWriteTracksLastEpoch) {
  ObjectMeta m;
  m.note_write(3);
  EXPECT_EQ(m.last_write_epoch, 3u);
  m.note_write(7);
  EXPECT_EQ(m.last_write_epoch, 7u);
  EXPECT_EQ(m.heat_epoch, 7u);
}

TEST(Popularity, InterleavedFoldAndWrite) {
  ObjectMeta m;
  m.note_write(0);   // w0 = 1
  m.fold_heat(1);    // p = 1
  m.note_write(1);   // w1 = 1
  m.note_write(1);   // w1 = 2
  EXPECT_DOUBLE_EQ(m.heat(1), 1.0 + 2.0);       // p_0 + in-flight w_1
  EXPECT_DOUBLE_EQ(m.heat(2), 1.0 / 2 + 2.0);   // p_1
}

TEST(ObjectMeta, DefaultsAreSane) {
  const ObjectMeta m;
  EXPECT_EQ(m.state, RedState::kEc);
  EXPECT_TRUE(m.src.empty());
  EXPECT_TRUE(m.dst.empty());
  EXPECT_DOUBLE_EQ(m.popularity, 0.0);
}

TEST(ServerSet, HoldsEverySupportedGeometry) {
  ServerSet s;
  for (ServerId i = 0; i < ServerSet::capacity(); ++i) s.push_back(i);
  EXPECT_GE(s.size(), 6u);  // at least the paper's RS(6,4) stripe set
  EXPECT_THROW(s.push_back(99), std::length_error);
}

}  // namespace
}  // namespace chameleon::meta
