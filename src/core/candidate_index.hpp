// Per-server candidate lists for the swap/migration loops: every stable
// (REP/EC) object indexed under each server that hosts one of its fragments,
// ranked by write heat. Shared by HCDS and the EDM baseline, both of which
// repeatedly ask "hottest/coldest object on server s". A list is ordered
// only as far as its cursors reach: each end is selected in growing chunks
// (nth_element, then a sort of the chunk), so a run that takes a few
// candidates from a server does not sort the whole list.
#pragma once

#include <cstdint>
#include <vector>

#include "meta/mapping_table.hpp"

namespace chameleon::core {

struct Candidate {
  ObjectId oid = 0;
  double heat = 0.0;
  std::uint64_t size_bytes = 0;
  meta::RedState state = meta::RedState::kEc;
};

/// How candidates are ranked hot-to-cold.
enum class HeatKind : std::uint8_t {
  kDecayed,     ///< Eq 1 exponential-decay heat (Chameleon)
  kCumulative,  ///< lifetime write count (EDM/SWANS-style, drift-blind)
};

class CandidateIndex {
 public:
  CandidateIndex() = default;
  CandidateIndex(const meta::MappingTable& table, std::uint32_t server_count,
                 Epoch now, HeatKind heat_kind = HeatKind::kDecayed) {
    rebuild(table, server_count, now, heat_kind);
  }

  /// Build from the mapping table at epoch `now`, reusing the storage of
  /// the previous build. Only objects in stable redundancy states are
  /// indexed — objects with a pending transition already have a
  /// destination and must not be re-targeted.
  void rebuild(const meta::MappingTable& table, std::uint32_t server_count,
               Epoch now, HeatKind heat_kind = HeatKind::kDecayed);

  /// Hottest not-yet-consumed candidate on `server` whose location set does
  /// not contain `exclude`; kInvalidU32 disables the exclusion. Consumes the
  /// returned candidate. Returns nullptr when exhausted.
  const Candidate* take_hottest(ServerId server, ServerId exclude,
                                const meta::MappingTable& table);
  const Candidate* take_coldest(ServerId server, ServerId exclude,
                                const meta::MappingTable& table);

  std::size_t total_candidates() const { return total_; }

 private:
  /// A server's candidates, as indices into candidates_, in (heat, oid)
  /// order are reached from both ends. Taken: [0, cold_cursor) and
  /// [hot_cursor, size). Sorted and in final position: [0, cold_sorted)
  /// and [hot_sorted, size). The middle is unsorted, but nothing in it is
  /// colder than the cold run or hotter than the hot run.
  struct PerServer {
    std::vector<std::uint32_t> items;
    std::size_t cold_cursor = 0;
    std::size_t cold_sorted = 0;
    std::size_t hot_sorted = 0;
    std::size_t hot_cursor = 0;
  };

  /// Move the next chunk of the middle into the hot (or cold) run.
  void extend(PerServer& s, bool hottest);
  const Candidate* take(ServerId server, ServerId exclude, bool hottest,
                        const meta::MappingTable& table);

  std::vector<Candidate> candidates_;  ///< one per indexed object
  std::vector<PerServer> servers_;
  std::size_t total_ = 0;
};

}  // namespace chameleon::core
