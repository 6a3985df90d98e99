// Page-mapped flash translation layer with out-of-place updates, on-demand
// garbage collection, dynamic wear leveling (new frontiers come from the
// least-worn free blocks) and static wear leveling (cold blocks are recycled
// into the most-worn free blocks once the in-device erase spread grows).
//
// The static-WL check runs after every host write and is O(1): the minimum
// and maximum block erase counts, the number of blocks at the minimum and
// the coldest full block are kept up to date by the erase and block-fill
// paths, instead of being rescanned over every block on each write.
//
// This is the FlashSim-equivalent substrate: every Chameleon wear number
// (erase counts, write amplification, GC-inflated write latency) is produced
// by this layer.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/binary_io.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "flashsim/ssd_config.hpp"
#include "flashsim/ssd_stats.hpp"

namespace chameleon::flashsim {

/// Outcome of a single host page write, including any GC work it triggered.
struct WriteResult {
  Nanos latency = 0;          ///< service time incl. GC stall attributed here
  std::uint32_t gc_erases = 0;
  std::uint32_t gc_copies = 0;
};

/// Thrown by writes once block retirements have consumed the spare capacity
/// needed to keep the logical space writable (device end-of-life).
struct DeviceWornOut : std::runtime_error {
  DeviceWornOut() : std::runtime_error("flash device worn out") {}
};

/// Injected uncorrectable bit error surfacing from a page read (the device's
/// UBER). Retryable: the caller should fall back to another replica or an
/// EC reconstruction.
struct UncorrectableReadError : TransientFault {
  UncorrectableReadError() : TransientFault("uncorrectable flash read error") {}
};

/// Injected transient program failure. Thrown before any FTL state changes,
/// so a retried write sees the device exactly as it was.
struct TransientWriteError : TransientFault {
  TransientWriteError() : TransientFault("transient flash program failure") {}
};

/// Deterministic fault-injection knobs (armed by the fault subsystem).
/// Probabilities are evaluated per page operation against a seeded RNG, so
/// a fixed op sequence yields a byte-identical fault sequence.
struct DeviceFaultPlan {
  double read_error_prob = 0.0;   ///< per page-read (derive from UBER x bits)
  double write_error_prob = 0.0;  ///< per page-program
};

/// Multi-stream hint: callers that know a page's update temperature can
/// direct it to a separate write frontier, so hot and cold data do not mix
/// within blocks (mixing is what inflates victim utilization and WA).
enum class StreamHint : std::uint8_t { kDefault = 0, kHot, kCold };

class Ftl {
 public:
  explicit Ftl(const SsdConfig& config);

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;
  Ftl(Ftl&&) = default;

  /// Program one logical page (out-of-place). `lpn` must be below
  /// config().logical_pages(). Runs GC synchronously if the free pool is low;
  /// that stall is included in the returned latency. `hint` selects the
  /// write stream (frontier) the page is appended to.
  WriteResult write(Lpn lpn, StreamHint hint = StreamHint::kDefault);

  /// Read one logical page. Unmapped pages still cost a read (the device
  /// returns zeroes); mapped state is observable via is_mapped().
  Nanos read(Lpn lpn);

  /// Invalidate a logical page without writing (object deletion / remap).
  void trim(Lpn lpn);

  /// Host-managed background GC (the open-channel SSD capability the paper
  /// assumes): reclaim victims off the write path until the free pool holds
  /// `free_target_fraction` of all blocks or `max_victims` rounds ran.
  /// Returns the device-busy time consumed (not charged to any write).
  Nanos background_gc(std::uint32_t max_victims, double free_target_fraction);

  bool is_mapped(Lpn lpn) const;

  /// Arm deterministic read/write error injection. Faults fire at the very
  /// top of read()/write(), before any FTL state mutation, so a failed op
  /// leaves the device byte-identical to its pre-op state.
  void arm_faults(const DeviceFaultPlan& plan, std::uint64_t seed) {
    faults_ = plan;
    fault_rng_ = Xoshiro256(seed);
    faults_armed_ = plan.read_error_prob > 0.0 || plan.write_error_prob > 0.0;
  }
  void disarm_faults() { faults_armed_ = false; }
  bool faults_armed() const { return faults_armed_; }

  const SsdConfig& config() const { return config_; }
  const SsdStats& stats() const { return stats_; }

  std::uint64_t total_erases() const { return stats_.block_erases; }
  std::uint32_t free_block_count() const {
    return static_cast<std::uint32_t>(free_blocks_.size());
  }
  std::uint64_t valid_page_count() const { return valid_pages_; }

  /// Physical-space utilization: valid pages / physical pages.
  double physical_utilization() const {
    return static_cast<double>(valid_pages_) /
           static_cast<double>(config_.physical_pages());
  }

  std::uint32_t block_erase_count(BlockId b) const {
    return blocks_[b].erase_count;
  }
  std::uint32_t min_block_erase() const { return erases_.min; }
  std::uint32_t max_block_erase() const { return erases_.max; }

  /// Blocks retired after reaching max_pe_cycles (0 when wear-out disabled).
  std::uint32_t retired_blocks() const { return retired_blocks_; }
  /// True once retirements leave too few usable blocks to serve the logical
  /// space; subsequent writes throw DeviceWornOut.
  bool is_worn_out() const;

  /// Exhaustive structural invariant check; test-only (O(pages)).
  void check_invariants() const;

  /// Bit-level serialization of the whole device: mapping tables, per-block
  /// metadata, free pool, GC buckets, frontiers, and cumulative stats.
  /// Flash is non-volatile — a host crash loses none of this — so recovery
  /// restores it exactly instead of re-deriving it by replay (replay-time GC
  /// would diverge from the original erase history). The transient in_gc_
  /// flag and fault-injection arming are deliberately not persisted.
  void save(BinaryWriter& out) const;

  /// Inverse of save(), into an Ftl constructed with the SAME SsdConfig.
  /// Throws std::runtime_error on geometry mismatch or truncated input.
  void restore(BinaryReader& in);

 private:
  enum class BlockState : std::uint8_t { kFree, kOpen, kFull, kRetired };
  /// Which write frontier a page is appended to. Host streams (default /
  /// hot / cold), GC copies and static-WL relocations each get their own
  /// frontier so differently-tempered data does not share blocks.
  enum class Frontier : std::uint8_t {
    kHost = 0,
    kHostHot = 1,
    kHostCold = 2,
    kGc = 3,
    kWl = 4,
  };
  static constexpr std::size_t kFrontierCount = 5;

  struct Block {
    std::uint32_t erase_count = 0;
    std::uint64_t alloc_seq = 0;     ///< age proxy for cost-benefit GC
    std::uint16_t write_ptr = 0;     ///< next free page slot
    std::uint16_t valid_count = 0;
    BlockState state = BlockState::kFree;
    // Intrusive doubly-linked list node for the valid-count bucket the block
    // sits in while kFull; -1 when not linked.
    std::int32_t bucket_prev = -1;
    std::int32_t bucket_next = -1;
  };

  Ppn block_first_ppn(BlockId b) const {
    return b * config_.pages_per_block;
  }
  BlockId block_of(Ppn p) const { return p / config_.pages_per_block; }

  void invalidate_ppn(Ppn ppn);
  /// Append `lpn` to the given frontier; allocates a new frontier block when
  /// needed. Returns program latency (no GC logic here).
  Nanos program_page(Lpn lpn, Frontier frontier);
  /// Pop a block from the free pool: min-erase for host/GC frontiers
  /// (dynamic WL), max-erase for the static-WL frontier.
  BlockId allocate_free_block(Frontier frontier);
  void retire_frontier_block(BlockId b);

  /// Run one GC round: pick a victim, relocate its valid pages, erase it.
  /// Returns latency of the round; 0 if no victim was available.
  Nanos gc_once();
  Nanos relocate_and_erase(BlockId victim, Frontier dest);
  BlockId choose_victim() const;
  BlockId choose_victim_greedy(bool wear_tiebreak) const;
  BlockId choose_victim_cost_benefit() const;
  Nanos maybe_static_wl();

  /// Static-WL order: fewer erases first, then older data, then block id.
  bool colder(BlockId a, BlockId b) const;

  // Full scans behind the static-WL cache (and check_invariants()).
  struct EraseExtremes {
    std::uint32_t min = 0;
    std::uint32_t max = 0;
    std::uint32_t blocks_at_min = 0;
  };
  EraseExtremes scan_erase_extremes() const;
  BlockId scan_coldest_full() const;

  void bucket_insert(BlockId b);
  void bucket_remove(BlockId b);
  void bucket_move(BlockId b, std::uint16_t old_valid);

  SsdConfig config_;
  SsdStats stats_;

  std::vector<Ppn> l2p_;  ///< logical -> physical (kInvalidPpn if unmapped)
  std::vector<Lpn> p2l_;  ///< physical -> logical (kInvalidLpn if invalid)
  std::vector<Block> blocks_;

  /// Free pool ordered by (erase_count, block id): supports both min-erase
  /// and max-erase extraction deterministically.
  std::set<std::pair<std::uint32_t, BlockId>> free_blocks_;

  /// Bucket heads: full blocks indexed by valid count (0..pages_per_block).
  std::vector<std::int32_t> bucket_heads_;
  std::uint32_t min_valid_hint_ = 0;  ///< lowest possibly-non-empty bucket

  BlockId frontier_[kFrontierCount] = {kInvalidBlock, kInvalidBlock,
                                       kInvalidBlock, kInvalidBlock,
                                       kInvalidBlock};
  std::uint64_t alloc_seq_ = 0;
  std::uint64_t valid_pages_ = 0;
  std::uint32_t retired_blocks_ = 0;

  bool in_gc_ = false;  ///< guards against recursive GC from relocation

  // Static-WL cache. Erase counts change only in relocate_and_erase() and
  // restore(); the set of full blocks only in retire_frontier_block() and
  // relocate_and_erase().
  EraseExtremes erases_;
  /// The coldest kFull block (kInvalidBlock if none). Rescanned only when
  /// needed after it was erased or the device was restored.
  BlockId coldest_full_ = kInvalidBlock;
  bool coldest_known_ = true;  ///< coldest_full_ is exact

  DeviceFaultPlan faults_;
  Xoshiro256 fault_rng_{0};
  bool faults_armed_ = false;
};

}  // namespace chameleon::flashsim
