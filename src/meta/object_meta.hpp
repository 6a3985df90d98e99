// Per-object metadata: redundancy state machine (Fig 2b), popularity
// tracking (Eq 1), and the two-level location indirection (Fig 3).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>

#include "common/inline_vec.hpp"
#include "common/types.hpp"

namespace chameleon::meta {

/// Redundancy and intermediate states of an object (paper Fig 2b).
/// kRep/kEc are stable redundancy states; the other four are intermediate:
/// the transition they announce is performed lazily on the next write.
enum class RedState : std::uint8_t {
  kRep = 0,     ///< 3-way replicated on src servers
  kEc,          ///< RS(6,4) encoded on src servers
  kLateRep,     ///< EC now; becomes REP on dst servers at next write (ARPT)
  kLateEc,      ///< REP now; becomes EC on dst servers at next write (ARPT)
  kRepEwo,      ///< REP now on src; re-placed onto dst at next write (HCDS)
  kEcEwo,       ///< EC now on src; re-placed onto dst at next write (HCDS)
};

constexpr bool is_intermediate(RedState s) {
  return s != RedState::kRep && s != RedState::kEc;
}

/// Redundancy scheme the object's *current bytes* are stored under.
constexpr RedState current_scheme(RedState s) {
  switch (s) {
    case RedState::kRep:
    case RedState::kLateEc:
    case RedState::kRepEwo:
      return RedState::kRep;
    case RedState::kEc:
    case RedState::kLateRep:
    case RedState::kEcEwo:
      return RedState::kEc;
  }
  return RedState::kRep;
}

/// Redundancy scheme the object will be in after its pending transition.
constexpr RedState target_scheme(RedState s) {
  switch (s) {
    case RedState::kRep:
    case RedState::kLateRep:
    case RedState::kRepEwo:
      return RedState::kRep;
    case RedState::kEc:
    case RedState::kLateEc:
    case RedState::kEcEwo:
      return RedState::kEc;
  }
  return RedState::kEc;
}

std::string_view red_state_name(RedState s);

/// Server location list. Inline capacity 16 covers every supported
/// redundancy geometry (the paper's RS(6,4) needs 6) without per-object
/// heap allocations.
using ServerSet = InlineVec<ServerId, 16>;

/// Eq 1 carried `gap` >= 1 epochs forward from heat `p` with `w` writes in
/// the first of them: one step p/2 + w, then gap - 1 halvings. A halving
/// whose result is a normal double is exact, so those halvings are done as
/// at most two multiplications by a power of two. Below the smallest normal
/// the halvings are replayed one at a time (at most 54 before the heat is
/// zero), because each one rounds and a single scaling would round once.
/// Bit-identical to stepping the recurrence epoch by epoch.
inline double decay_heat(double p, std::uint32_t w, Epoch gap) {
  p = p / 2.0 + w;
  std::int64_t rest = static_cast<std::int64_t>(gap) - 1;
  // Biased exponent: 1..2046 for a normal p, 0 for zero or a subnormal p,
  // 2047 for inf and NaN, which halving leaves as they are.
  const auto biased = static_cast<std::int64_t>(
      std::bit_cast<std::uint64_t>(p) >> 52 & 0x7ff);
  if (biased == 0x7ff) return p;
  for (std::int64_t exact = std::min(rest, biased - 1); exact > 0;) {
    const std::int64_t step = std::min<std::int64_t>(exact, 1022);
    p *= std::bit_cast<double>(static_cast<std::uint64_t>(1023 - step) << 52);
    exact -= step;
    rest -= step;
  }
  for (; rest > 0 && p != 0.0; --rest) p /= 2.0;
  return p;
}

struct ObjectMeta {
  ObjectId oid = 0;
  std::uint64_t size_bytes = 0;
  RedState state = RedState::kEc;

  /// Bumped whenever the object's fragments are (re)written to a new
  /// placement; used to derive distinct FragmentKeys per incarnation.
  std::uint32_t placement_version = 0;

  /// First-level indirection: servers currently holding the latest bytes.
  ServerSet src;
  /// Second-level indirection: pending destination for intermediate states.
  ServerSet dst;

  Epoch state_since = 0;  ///< epoch the current state was entered

  // --- popularity (write heat, Eq 1: p_k = p_{k-1}/2 + w_k) ---
  /// Heat folded through the end of epoch (heat_epoch - 1).
  double popularity = 0.0;
  /// Writes observed during heat_epoch (the epoch being accumulated).
  std::uint32_t writes_in_epoch = 0;
  /// Lifetime write count (un-decayed; what SWANS/EDM-style balancers use).
  std::uint64_t total_writes = 0;
  Epoch heat_epoch = 0;
  Epoch last_write_epoch = 0;

  /// Fold the exponential-decay recurrence forward to `now`. After this,
  /// `popularity` includes every epoch before `now` and `writes_in_epoch`
  /// counts only epoch `now`. O(1) in the gap (decay_heat).
  void fold_heat(Epoch now) {
    if (heat_epoch >= now) return;
    popularity = decay_heat(popularity, writes_in_epoch, now - heat_epoch);
    writes_in_epoch = 0;
    heat_epoch = now;
  }

  /// Record one write during epoch `now`.
  void note_write(Epoch now) {
    fold_heat(now);
    ++writes_in_epoch;
    ++total_writes;
    last_write_epoch = now;
  }

  /// Current write heat including the partially-elapsed epoch. Equal to
  /// folding first, so the heat never needs an eager per-epoch fold.
  double heat(Epoch now) const {
    if (heat_epoch >= now) return popularity + writes_in_epoch;
    return decay_heat(popularity, writes_in_epoch, now - heat_epoch);
  }
};

}  // namespace chameleon::meta
