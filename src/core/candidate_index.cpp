#include "core/candidate_index.hpp"

#include <algorithm>

namespace chameleon::core {

namespace {

/// Smallest chunk selected at once; later chunks match the run already
/// sorted on that side, so a side that is drained costs O(n log n) at most.
constexpr std::size_t kMinChunk = 32;

}  // namespace

void CandidateIndex::rebuild(const meta::MappingTable& table,
                             std::uint32_t server_count, Epoch now,
                             HeatKind heat_kind) {
  candidates_.clear();
  candidates_.reserve(table.object_count());
  servers_.resize(server_count);
  for (PerServer& s : servers_) s.items.clear();
  total_ = 0;
  table.for_each([&](const meta::ObjectMeta& m) {
    if (meta::is_intermediate(m.state)) return;
    const auto idx = static_cast<std::uint32_t>(candidates_.size());
    candidates_.push_back(
        {m.oid,
         heat_kind == HeatKind::kDecayed ? m.heat(now)
                                         : static_cast<double>(m.total_writes),
         m.size_bytes, m.state});
    for (const ServerId s : m.src) {
      if (s < servers_.size()) {
        servers_[s].items.push_back(idx);
        ++total_;
      }
    }
  });
  for (PerServer& s : servers_) {
    s.cold_cursor = s.cold_sorted = 0;
    s.hot_sorted = s.hot_cursor = s.items.size();
  }
}

void CandidateIndex::extend(PerServer& s, bool hottest) {
  // Hot-to-cold rank. A total order: oids break heat ties, so chunked
  // selection returns candidates in the same sequence as a full sort.
  const auto colder = [this](std::uint32_t x, std::uint32_t y) {
    const Candidate& a = candidates_[x];
    const Candidate& b = candidates_[y];
    return a.heat < b.heat || (a.heat == b.heat && a.oid < b.oid);
  };
  const auto at = [&s](std::size_t i) {
    return s.items.begin() + static_cast<std::ptrdiff_t>(i);
  };
  const std::size_t middle = s.hot_sorted - s.cold_sorted;
  const std::size_t run =
      hottest ? s.items.size() - s.hot_sorted : s.cold_sorted;
  const std::size_t chunk = std::min(middle, std::max(kMinChunk, run));
  if (hottest) {
    const std::size_t first = s.hot_sorted - chunk;
    std::nth_element(at(s.cold_sorted), at(first), at(s.hot_sorted), colder);
    std::sort(at(first), at(s.hot_sorted), colder);
    s.hot_sorted = first;
  } else {
    const std::size_t last = s.cold_sorted + chunk;
    if (last < s.hot_sorted) {
      std::nth_element(at(s.cold_sorted), at(last), at(s.hot_sorted), colder);
    }
    std::sort(at(s.cold_sorted), at(last), colder);
    s.cold_sorted = last;
  }
}

const Candidate* CandidateIndex::take(ServerId server, ServerId exclude,
                                      bool hottest,
                                      const meta::MappingTable& table) {
  if (server >= servers_.size()) return nullptr;
  PerServer& s = servers_[server];
  while (s.cold_cursor < s.hot_cursor) {
    // Once the middle is empty, both runs meet and every slot is sorted.
    if (s.cold_sorted < s.hot_sorted &&
        (hottest ? s.hot_cursor == s.hot_sorted
                 : s.cold_cursor == s.cold_sorted)) {
      extend(s, hottest);
    }
    const Candidate* c =
        &candidates_[hottest ? s.items[--s.hot_cursor]
                             : s.items[s.cold_cursor++]];
    // Revalidate against the live table: an earlier decision this epoch may
    // have moved the object into an intermediate state or off this server.
    const auto live = table.get(c->oid);
    if (!live || meta::is_intermediate(live->state)) continue;
    if (!live->src.contains(server)) continue;
    if (exclude != kInvalidServer && live->src.contains(exclude)) continue;
    return c;
  }
  return nullptr;
}

const Candidate* CandidateIndex::take_hottest(ServerId server,
                                              ServerId exclude,
                                              const meta::MappingTable& table) {
  return take(server, exclude, /*hottest=*/true, table);
}

const Candidate* CandidateIndex::take_coldest(ServerId server,
                                              ServerId exclude,
                                              const meta::MappingTable& table) {
  return take(server, exclude, /*hottest=*/false, table);
}

}  // namespace chameleon::core
