#include "dist/membership.hpp"

#include <algorithm>
#include <stdexcept>

namespace chameleon::dist {

const char* peer_state_name(PeerState s) {
  switch (s) {
    case PeerState::kUnknown: return "unknown";
    case PeerState::kAlive: return "alive";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "unknown";
}

Membership::Membership(const MembershipConfig& config) : config_(config) {
  if (config_.suspect_after == 0 || config_.dead_after < config_.suspect_after) {
    throw std::invalid_argument(
        "dist: membership thresholds must satisfy "
        "1 <= suspect_after <= dead_after");
  }
}

void Membership::add_peer(std::uint32_t id) {
  std::lock_guard lock(mutex_);
  if (find_locked(id) != nullptr) {
    throw std::invalid_argument("dist: duplicate peer id " +
                                std::to_string(id));
  }
  Entry entry;
  entry.id = id;
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, std::uint32_t want) { return e.id < want; });
  entries_.insert(pos, std::move(entry));
}

Membership::Entry* Membership::find_locked(std::uint32_t id) {
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, std::uint32_t want) { return e.id < want; });
  if (pos == entries_.end() || pos->id != id) return nullptr;
  return &*pos;
}

const Membership::Entry* Membership::find_locked(std::uint32_t id) const {
  return const_cast<Membership*>(this)->find_locked(id);
}

void Membership::transition_locked(Entry& entry, PeerState next) {
  if (entry.state == next) return;
  if (entry.state == PeerState::kDead && next == PeerState::kAlive) {
    ++entry.rejoins;
    ++rejoins_;
  }
  entry.state = next;
  ++transitions_;
}

bool Membership::probe_ok(std::uint32_t id) {
  std::lock_guard lock(mutex_);
  Entry* entry = find_locked(id);
  if (entry == nullptr) return false;
  ++entry->heartbeats_ok;
  entry->consecutive_misses = 0;
  const PeerState before = entry->state;
  transition_locked(*entry, PeerState::kAlive);
  return before != PeerState::kAlive;
}

bool Membership::probe_missed(std::uint32_t id) {
  std::lock_guard lock(mutex_);
  Entry* entry = find_locked(id);
  if (entry == nullptr) return false;
  ++entry->heartbeats_missed;
  ++entry->consecutive_misses;
  const PeerState before = entry->state;
  // kUnknown skips kSuspect but still settles to kDead at dead_after
  // misses: a peer that never answered has not joined yet, and one
  // crashed-at-boot node must not wedge the router's settled() gate
  // forever.
  if (entry->state == PeerState::kAlive &&
      entry->consecutive_misses >= config_.suspect_after) {
    transition_locked(*entry, PeerState::kSuspect);
  }
  if ((entry->state == PeerState::kSuspect ||
       entry->state == PeerState::kUnknown) &&
      entry->consecutive_misses >= config_.dead_after) {
    transition_locked(*entry, PeerState::kDead);
  }
  return before != entry->state;
}

PeerState Membership::state_of(std::uint32_t id) const {
  std::lock_guard lock(mutex_);
  const Entry* entry = find_locked(id);
  return entry == nullptr ? PeerState::kUnknown : entry->state;
}

bool Membership::is_live(std::uint32_t id) const {
  return state_of(id) == PeerState::kAlive;
}

std::vector<std::uint32_t> Membership::live_ids() const {
  std::lock_guard lock(mutex_);
  std::vector<std::uint32_t> out;
  for (const Entry& e : entries_) {
    if (e.state == PeerState::kAlive) out.push_back(e.id);
  }
  return out;
}

std::vector<std::uint32_t> Membership::all_ids() const {
  std::lock_guard lock(mutex_);
  std::vector<std::uint32_t> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.id);
  return out;
}

bool Membership::settled() const {
  std::lock_guard lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.state == PeerState::kUnknown) return false;
  }
  return true;
}

std::uint64_t Membership::transitions_total() const {
  std::lock_guard lock(mutex_);
  return transitions_;
}

std::uint64_t Membership::rejoins_total() const {
  std::lock_guard lock(mutex_);
  return rejoins_;
}

std::size_t Membership::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::string Membership::to_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "[";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(e.id);
    out += ",\"state\":\"";
    out += peer_state_name(e.state);
    out += "\",\"misses\":" + std::to_string(e.consecutive_misses);
    out += ",\"heartbeats_ok\":" + std::to_string(e.heartbeats_ok);
    out += ",\"heartbeats_missed\":" + std::to_string(e.heartbeats_missed);
    out += ",\"rejoins\":" + std::to_string(e.rejoins);
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace chameleon::dist
