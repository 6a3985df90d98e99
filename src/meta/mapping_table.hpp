// The distributed mapping table (paper §III-C), realized as a sharded
// in-process store with per-shard locking — our stand-in for the MySQL
// metadata service. Tracks ObjectMeta plus each remapped object's epoch log,
// and supports the compaction pass that bounds log memory.
//
// Each shard also keeps its state census and the set of objects in an
// intermediate state up to date on every write (create, mutate, erase,
// for_each_mutable), so the balancer's per-epoch census and stale-transition
// scan cost what changed, not a walk of every object.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "meta/epoch_log.hpp"
#include "meta/object_meta.hpp"

namespace chameleon::meta {

/// Aggregate per-state object/byte counts (drives Fig 8).
struct StateCensus {
  std::array<std::uint64_t, 6> objects{};
  std::array<std::uint64_t, 6> bytes{};

  std::uint64_t objects_in(RedState s) const {
    return objects[static_cast<std::size_t>(s)];
  }
  std::uint64_t bytes_in(RedState s) const {
    return bytes[static_cast<std::size_t>(s)];
  }
  std::uint64_t total_objects() const;
  std::uint64_t total_bytes() const;
};

class MappingTable {
 public:
  explicit MappingTable(std::size_t shard_count = 16);

  /// Insert a fresh object; returns false if it already exists.
  bool create(const ObjectMeta& meta);

  /// Copy out an object's metadata.
  std::optional<ObjectMeta> get(ObjectId oid) const;

  bool exists(ObjectId oid) const;

  /// Run `fn` under the shard lock with a mutable reference; returns false
  /// if the object is unknown. `fn` must not call back into the table.
  bool mutate(ObjectId oid, const std::function<void(ObjectMeta&)>& fn);

  /// Remove an object and its epoch log.
  bool erase(ObjectId oid);

  /// Visit every object (shard by shard, under each shard's lock).
  void for_each(const std::function<void(const ObjectMeta&)>& fn) const;
  void for_each_mutable(const std::function<void(ObjectMeta&)>& fn);

  /// Visit every object in an intermediate state, in no particular order
  /// (shard by shard, under each shard's lock). O(such objects).
  void for_each_pending(const std::function<void(const ObjectMeta&)>& fn) const;

  /// Append a state/location change to the object's epoch log.
  void log_change(ObjectId oid, const EpochLogEntry& entry);

  /// Fold all epoch logs to their latest entries. Returns entries removed.
  std::size_t compact_logs();

  std::size_t log_entry_count() const;
  std::size_t log_memory_bytes() const;
  std::size_t epoch_log_size(ObjectId oid) const;

  /// Newest epoch-log entry of an object; nullopt when the object has never
  /// been remapped. Lets recovery checks replay a log against live metadata.
  std::optional<EpochLogEntry> latest_log_entry(ObjectId oid) const;

  std::size_t object_count() const;
  /// Objects and bytes per state. O(shards): kept as counters.
  StateCensus census() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<ObjectId, ObjectMeta> objects;
    std::unordered_map<ObjectId, EpochLog> logs;
    StateCensus census;                    ///< over `objects`
    std::unordered_set<ObjectId> pending;  ///< oids in intermediate states

    /// Count an object in (`in`) or out of `census` and `pending`.
    void account(ObjectId oid, RedState state, std::uint64_t size, bool in);
    /// Re-count an object after an in-place write.
    void reaccount(ObjectId oid, RedState old_state, std::uint64_t old_size,
                   const ObjectMeta& now);
  };

  Shard& shard_for(ObjectId oid) {
    return shards_[oid % shards_.size()];
  }
  const Shard& shard_for(ObjectId oid) const {
    return shards_[oid % shards_.size()];
  }

  std::vector<Shard> shards_;
};

}  // namespace chameleon::meta
