#include "meta/mapping_table.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace chameleon::meta {

std::string_view red_state_name(RedState s) {
  switch (s) {
    case RedState::kRep: return "REP";
    case RedState::kEc: return "EC";
    case RedState::kLateRep: return "late-REP";
    case RedState::kLateEc: return "late-EC";
    case RedState::kRepEwo: return "REP-EWO";
    case RedState::kEcEwo: return "EC-EWO";
  }
  return "?";
}

std::uint64_t StateCensus::total_objects() const {
  std::uint64_t sum = 0;
  for (const auto v : objects) sum += v;
  return sum;
}

std::uint64_t StateCensus::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto v : bytes) sum += v;
  return sum;
}

void MappingTable::Shard::account(ObjectId oid, RedState state,
                                  std::uint64_t size, bool in) {
  const auto idx = static_cast<std::size_t>(state);
  if (in) {
    ++census.objects[idx];
    census.bytes[idx] += size;
    if (is_intermediate(state)) pending.insert(oid);
  } else {
    --census.objects[idx];
    census.bytes[idx] -= size;
    if (is_intermediate(state)) pending.erase(oid);
  }
}

void MappingTable::Shard::reaccount(ObjectId oid, RedState old_state,
                                    std::uint64_t old_size,
                                    const ObjectMeta& now) {
  if (now.state == old_state && now.size_bytes == old_size) return;
  account(oid, old_state, old_size, false);
  account(oid, now.state, now.size_bytes, true);
}

MappingTable::MappingTable(std::size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

bool MappingTable::create(const ObjectMeta& meta) {
  Shard& shard = shard_for(meta.oid);
  std::lock_guard lock(shard.mutex);
  if (!shard.objects.try_emplace(meta.oid, meta).second) return false;
  shard.account(meta.oid, meta.state, meta.size_bytes, true);
  return true;
}

std::optional<ObjectMeta> MappingTable::get(ObjectId oid) const {
  const Shard& shard = shard_for(oid);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.objects.find(oid);
  if (it == shard.objects.end()) return std::nullopt;
  return it->second;
}

bool MappingTable::exists(ObjectId oid) const {
  const Shard& shard = shard_for(oid);
  std::lock_guard lock(shard.mutex);
  return shard.objects.contains(oid);
}

bool MappingTable::mutate(ObjectId oid,
                          const std::function<void(ObjectMeta&)>& fn) {
  Shard& shard = shard_for(oid);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.objects.find(oid);
  if (it == shard.objects.end()) return false;
  const RedState state = it->second.state;
  const std::uint64_t size = it->second.size_bytes;
  fn(it->second);
  shard.reaccount(oid, state, size, it->second);
  return true;
}

bool MappingTable::erase(ObjectId oid) {
  Shard& shard = shard_for(oid);
  std::lock_guard lock(shard.mutex);
  shard.logs.erase(oid);
  const auto it = shard.objects.find(oid);
  if (it == shard.objects.end()) return false;
  shard.account(oid, it->second.state, it->second.size_bytes, false);
  shard.objects.erase(it);
  return true;
}

void MappingTable::for_each(
    const std::function<void(const ObjectMeta&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [oid, meta] : shard.objects) fn(meta);
  }
}

void MappingTable::for_each_mutable(
    const std::function<void(ObjectMeta&)>& fn) {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (auto& [oid, meta] : shard.objects) {
      const RedState state = meta.state;
      const std::uint64_t size = meta.size_bytes;
      fn(meta);
      shard.reaccount(oid, state, size, meta);
    }
  }
}

void MappingTable::for_each_pending(
    const std::function<void(const ObjectMeta&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const ObjectId oid : shard.pending) fn(shard.objects.at(oid));
  }
}

void MappingTable::log_change(ObjectId oid, const EpochLogEntry& entry) {
  Shard& shard = shard_for(oid);
  std::lock_guard lock(shard.mutex);
  if (!shard.objects.contains(oid)) {
    throw std::invalid_argument("MappingTable::log_change: unknown object");
  }
  shard.logs[oid].append(entry);
  if (obs::enabled()) {
    static auto& appends = obs::metrics().counter(
        "chameleon_epoch_log_appends_total", {},
        "Entries appended to per-object epoch logs");
    appends.inc();
  }
}

std::size_t MappingTable::compact_logs() {
  std::size_t removed = 0;
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (auto& [oid, log] : shard.logs) removed += log.compact();
  }
  if (obs::enabled() && removed > 0) {
    static auto& compacted = obs::metrics().counter(
        "chameleon_epoch_log_compacted_total", {},
        "Epoch-log entries removed by compaction");
    compacted.inc(removed);
  }
  return removed;
}

std::size_t MappingTable::log_entry_count() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [oid, log] : shard.logs) total += log.size();
  }
  return total;
}

std::size_t MappingTable::log_memory_bytes() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [oid, log] : shard.logs) total += log.memory_bytes();
  }
  return total;
}

std::size_t MappingTable::epoch_log_size(ObjectId oid) const {
  const Shard& shard = shard_for(oid);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.logs.find(oid);
  return it == shard.logs.end() ? 0 : it->second.size();
}

std::optional<EpochLogEntry> MappingTable::latest_log_entry(
    ObjectId oid) const {
  const Shard& shard = shard_for(oid);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.logs.find(oid);
  if (it == shard.logs.end() || it->second.empty()) return std::nullopt;
  return it->second.latest();
}

std::size_t MappingTable::object_count() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.objects.size();
  }
  return total;
}

StateCensus MappingTable::census() const {
  StateCensus census;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (std::size_t i = 0; i < census.objects.size(); ++i) {
      census.objects[i] += shard.census.objects[i];
      census.bytes[i] += shard.census.bytes[i];
    }
  }
  return census;
}

}  // namespace chameleon::meta
