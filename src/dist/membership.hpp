// Cross-process membership with lease semantics (docs/DISTRIBUTED.md).
//
// This is core::Supervisor's lease/rejoin discipline lifted across process
// boundaries: instead of a virtual-clock lease, a peer's lease is "answered
// one of the last N liveness probes". dist::Router holds the only view; its
// probes are PEER_HEALTH heartbeats (the monitor thread) plus data-plane RPC
// outcomes, so a kill -9'd node is detected on the very next write that
// targets it, not only at the next heartbeat tick.
//
// State machine per peer (miss counts are consecutive):
//
//   kUnknown --ok--> kAlive                    (startup; not a rejoin)
//   kAlive   --misses >= suspect_after--> kSuspect
//   kSuspect --misses >= dead_after-->    kDead
//   kSuspect --ok--> kAlive                    (blip absorbed; not a rejoin)
//   kDead    --ok--> kAlive                    (rejoin; counted)
//
// Counting misses instead of wall-clock timeouts keeps every transition a
// deterministic function of the probe outcome sequence, which is what the
// membership unit tests pin down; the wall-clock lease duration is then
// (heartbeat interval) x dead_after in the steady state.
//
// Thread-safe; every method may be called from any thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace chameleon::dist {

enum class PeerState : std::uint8_t { kUnknown, kAlive, kSuspect, kDead };
const char* peer_state_name(PeerState s);

struct MembershipConfig {
  std::uint32_t suspect_after = 2;  ///< consecutive misses -> kSuspect
  std::uint32_t dead_after = 4;     ///< consecutive misses -> kDead
};

class Membership {
 public:
  explicit Membership(const MembershipConfig& config = {});

  /// Register a peer in kUnknown. Throws on duplicate id.
  void add_peer(std::uint32_t id);

  /// Record a successful probe of `id`. Returns true when the peer's state
  /// changed (kUnknown/kSuspect/kDead -> kAlive). Unknown ids are ignored
  /// (returns false) so late responses from removed peers are harmless.
  bool probe_ok(std::uint32_t id);

  /// Record a failed probe of `id` (timeout, refused connection, transport
  /// error). Returns true when the peer's state changed.
  bool probe_missed(std::uint32_t id);

  PeerState state_of(std::uint32_t id) const;
  /// True when the peer is kAlive (the only state the data plane targets).
  bool is_live(std::uint32_t id) const;
  /// Ids currently kAlive, ascending.
  std::vector<std::uint32_t> live_ids() const;
  /// All registered ids, ascending.
  std::vector<std::uint32_t> all_ids() const;
  /// True once no peer is kUnknown (every peer has answered or died) —
  /// the cluster-startup gate the router's HEALTH reports.
  bool settled() const;

  /// Peer state changes so far; steady-state probes change nothing.
  std::uint64_t transitions_total() const;
  std::uint64_t rejoins_total() const;
  std::size_t size() const;

  /// Membership as a JSON array of per-peer objects (for STATS/HEALTH).
  std::string to_json() const;

 private:
  struct Entry {
    std::uint32_t id = 0;
    PeerState state = PeerState::kUnknown;
    std::uint32_t consecutive_misses = 0;
    std::uint64_t heartbeats_ok = 0;
    std::uint64_t heartbeats_missed = 0;
    std::uint64_t rejoins = 0;  ///< kDead -> kAlive transitions
  };

  Entry* find_locked(std::uint32_t id);
  const Entry* find_locked(std::uint32_t id) const;
  void transition_locked(Entry& entry, PeerState next);

  MembershipConfig config_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  ///< sorted by id
  std::uint64_t transitions_ = 0;
  std::uint64_t rejoins_ = 0;
};

}  // namespace chameleon::dist
