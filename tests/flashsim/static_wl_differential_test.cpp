// Differential guard for the cached static wear-leveling check. Neither the
// simulator's benchmark nor the golden CSVs ever let the in-device erase
// spread reach static_wl_delta, so this is the test that makes static WL
// fire: a seeded, skewed write stream over small devices, with delta 2-16,
// every GC victim policy, every stream hint, trims, background GC, a
// save/restore midway and a wear-out case.
//
// After every write the FTL's min/max erase counts must equal a brute-force
// scan of every block. At the end, a digest of every write's result, every
// background-GC round and each device's static-WL page copies must equal
// the constant recorded when the check still rescanned all blocks on every
// write: static WL fires at exactly the same writes as it did then.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "flashsim/ftl.hpp"

namespace chameleon::flashsim {
namespace {

struct Case {
  std::uint32_t delta;
  GcVictimPolicy policy;
  std::uint32_t max_pe_cycles;  ///< 0: no wear-out
  std::uint64_t writes;
  std::uint64_t restore_at;  ///< write index of the save/restore
};

bool extremes_match_scan(const Ftl& ftl) {
  std::uint32_t lo = ftl.block_erase_count(0);
  std::uint32_t hi = lo;
  for (BlockId b = 1; b < ftl.config().block_count; ++b) {
    lo = std::min(lo, ftl.block_erase_count(b));
    hi = std::max(hi, ftl.block_erase_count(b));
  }
  return ftl.min_block_erase() == lo && ftl.max_block_erase() == hi;
}

std::unique_ptr<Ftl> save_and_restore(const Ftl& ftl) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter out(bytes);
  ftl.save(out);
  auto restored = std::make_unique<Ftl>(ftl.config());
  BinaryReader in(bytes);
  restored->restore(in);
  return restored;
}

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t wl_copies = 0;
  bool worn_out = false;
};

/// Runs one case. 80% of writes go to the hottest 10% of the logical space,
/// so cold data stays pinned on its blocks and the erase spread keeps
/// crossing delta.
Outcome run_case(const Case& c, std::uint64_t seed) {
  SsdConfig cfg;
  cfg.pages_per_block = 8;
  cfg.block_count = 64;
  cfg.static_wl_delta = c.delta;
  cfg.gc_policy = c.policy;
  cfg.max_pe_cycles = c.max_pe_cycles;
  auto ftl = std::make_unique<Ftl>(cfg);
  const Lpn logical = cfg.logical_pages();
  const Lpn hot = logical / 10;
  Xoshiro256 rng(seed);
  Outcome out;
  std::uint64_t h = kFnv64OffsetBasis;
  for (std::uint64_t i = 0; i < c.writes; ++i) {
    if (i == c.restore_at) {
      ftl = save_and_restore(*ftl);
      ftl->check_invariants();
    }
    const std::uint64_t r = rng.next_below(100);
    if (r < 2) {
      ftl->trim(static_cast<Lpn>(rng.next_below(logical)));
    } else if (r < 3) {
      h = fnv1a64_continue(
          h, static_cast<std::uint64_t>(ftl->background_gc(4, 0.2)));
    }
    const auto lpn = static_cast<Lpn>(
        r < 80 ? rng.next_below(hot) : hot + rng.next_below(logical - hot));
    const auto hint = static_cast<StreamHint>(rng.next_below(3));
    WriteResult w;
    try {
      w = ftl->write(lpn, hint);
    } catch (const DeviceWornOut&) {
      h = fnv1a64_continue(h, i);
      out.worn_out = true;
      break;
    }
    h = fnv1a64_continue(h, static_cast<std::uint64_t>(w.latency));
    h = fnv1a64_continue(h, w.gc_erases);
    h = fnv1a64_continue(h, w.gc_copies);
    EXPECT_TRUE(extremes_match_scan(*ftl)) << "write " << i;
    if (::testing::Test::HasFailure()) return out;
    if (i % 4096 == 0) ftl->check_invariants();
  }
  if (!out.worn_out) ftl->check_invariants();
  out.wl_copies = ftl->stats().wl_page_copies;
  h = fnv1a64_continue(h, out.wl_copies);
  h = fnv1a64_continue(h, ftl->stats().block_erases);
  h = fnv1a64_continue(h, ftl->retired_blocks());
  out.digest = h;
  return out;
}

TEST(StaticWlDifferential, FiresAtTheSameWritesAsAFullScan) {
  std::vector<Case> cases;
  for (const auto& [policy, deltas] :
       {std::pair{GcVictimPolicy::kGreedy, std::array{2u, 4u, 8u, 16u}},
        std::pair{GcVictimPolicy::kCostBenefit, std::array{3u, 6u, 10u, 14u}},
        std::pair{GcVictimPolicy::kWearAware, std::array{2u, 5u, 12u, 16u}}}) {
    for (const std::uint32_t delta : deltas) {
      cases.push_back({delta, policy, 0, 40'000, 20'000});
    }
  }
  // Wear-out: blocks retire at max_pe_cycles while static WL keeps moving
  // cold data, until the device dies.
  cases.push_back({4, GcVictimPolicy::kGreedy, 60, 1'000'000, 2'000});

  std::uint64_t digest = kFnv64OffsetBasis;
  std::uint64_t seed = 11;
  for (const Case& c : cases) {
    const Outcome out = run_case(c, seed++);
    ASSERT_FALSE(HasFailure()) << "delta " << c.delta;
    EXPECT_GT(out.wl_copies, 0u) << "static WL never fired at delta "
                                 << c.delta;
    EXPECT_EQ(out.worn_out, c.max_pe_cycles > 0) << "delta " << c.delta;
    digest = fnv1a64_continue(digest, out.digest);
  }
  // Recorded with the full-scan check.
  EXPECT_EQ(digest, 0x4f806bd2d7834727ULL) << std::hex << digest;
}

}  // namespace
}  // namespace chameleon::flashsim
