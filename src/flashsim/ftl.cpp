#include "flashsim/ftl.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chameleon::flashsim {

Ftl::Ftl(const SsdConfig& config) : config_(config) {
  config_.validate();
  l2p_.assign(config_.logical_pages(), kInvalidPpn);
  p2l_.assign(config_.physical_pages(), kInvalidLpn);
  blocks_.resize(config_.block_count);
  bucket_heads_.assign(config_.pages_per_block + 1, -1);
  for (BlockId b = 0; b < config_.block_count; ++b) {
    free_blocks_.emplace(0, b);
  }
  erases_.blocks_at_min = config_.block_count;
}

// ---------------------------------------------------------------------------
// Bucket list maintenance (full blocks grouped by valid count).

void Ftl::bucket_insert(BlockId b) {
  Block& blk = blocks_[b];
  const std::uint16_t v = blk.valid_count;
  blk.bucket_prev = -1;
  blk.bucket_next = bucket_heads_[v];
  if (blk.bucket_next >= 0) {
    blocks_[static_cast<BlockId>(blk.bucket_next)].bucket_prev =
        static_cast<std::int32_t>(b);
  }
  bucket_heads_[v] = static_cast<std::int32_t>(b);
  min_valid_hint_ = std::min<std::uint32_t>(min_valid_hint_, v);
}

void Ftl::bucket_remove(BlockId b) {
  Block& blk = blocks_[b];
  if (blk.bucket_prev >= 0) {
    blocks_[static_cast<BlockId>(blk.bucket_prev)].bucket_next = blk.bucket_next;
  } else {
    bucket_heads_[blk.valid_count] = blk.bucket_next;
  }
  if (blk.bucket_next >= 0) {
    blocks_[static_cast<BlockId>(blk.bucket_next)].bucket_prev = blk.bucket_prev;
  }
  blk.bucket_prev = -1;
  blk.bucket_next = -1;
}

void Ftl::bucket_move(BlockId b, std::uint16_t old_valid) {
  Block& blk = blocks_[b];
  // Manual unlink using the old bucket index.
  if (blk.bucket_prev >= 0) {
    blocks_[static_cast<BlockId>(blk.bucket_prev)].bucket_next = blk.bucket_next;
  } else {
    bucket_heads_[old_valid] = blk.bucket_next;
  }
  if (blk.bucket_next >= 0) {
    blocks_[static_cast<BlockId>(blk.bucket_next)].bucket_prev = blk.bucket_prev;
  }
  bucket_insert(b);
}

// ---------------------------------------------------------------------------
// Page-level primitives.

void Ftl::invalidate_ppn(Ppn ppn) {
  const BlockId b = block_of(ppn);
  Block& blk = blocks_[b];
  assert(p2l_[ppn] != kInvalidLpn);
  p2l_[ppn] = kInvalidLpn;
  const std::uint16_t old_valid = blk.valid_count;
  --blk.valid_count;
  --valid_pages_;
  if (blk.state == BlockState::kFull) {
    bucket_move(b, old_valid);
  }
}

BlockId Ftl::allocate_free_block(Frontier frontier) {
  if (free_blocks_.empty()) {
    if (config_.max_pe_cycles > 0 && retired_blocks_ > 0) {
      throw DeviceWornOut();  // retirements consumed the spare pool
    }
    throw std::runtime_error(
        "Ftl: free-block pool exhausted (device overfilled; check sizing)");
  }
  // Dynamic wear leveling: host/GC data goes to the least-worn free block;
  // the static-WL frontier (cold data) goes to the most-worn free block so
  // that worn blocks stop being recycled.
  const auto it = frontier == Frontier::kWl ? std::prev(free_blocks_.end())
                                            : free_blocks_.begin();
  const BlockId b = it->second;
  free_blocks_.erase(it);
  Block& blk = blocks_[b];
  blk.state = BlockState::kOpen;
  blk.write_ptr = 0;
  blk.alloc_seq = ++alloc_seq_;
  return b;
}

void Ftl::retire_frontier_block(BlockId b) {
  Block& blk = blocks_[b];
  blk.state = BlockState::kFull;
  bucket_insert(b);
  if (coldest_known_ &&
      (coldest_full_ == kInvalidBlock || colder(b, coldest_full_))) {
    coldest_full_ = b;
  }
}

Nanos Ftl::program_page(Lpn lpn, Frontier frontier) {
  auto& frontier_block = frontier_[static_cast<std::size_t>(frontier)];
  if (frontier_block == kInvalidBlock) {
    frontier_block = allocate_free_block(frontier);
  }
  Block& blk = blocks_[frontier_block];
  const Ppn ppn = block_first_ppn(frontier_block) + blk.write_ptr;
  ++blk.write_ptr;
  ++blk.valid_count;
  ++valid_pages_;
  p2l_[ppn] = lpn;
  l2p_[lpn] = ppn;
  if (blk.write_ptr == config_.pages_per_block) {
    retire_frontier_block(frontier_block);
    frontier_block = kInvalidBlock;
  }
  return config_.write_latency;
}

// ---------------------------------------------------------------------------
// Victim selection.

BlockId Ftl::choose_victim_greedy(bool wear_tiebreak) const {
  for (std::uint32_t v = min_valid_hint_; v < bucket_heads_.size(); ++v) {
    const std::int32_t head = bucket_heads_[v];
    if (head < 0) continue;
    // Within the lowest non-empty bucket pick the *oldest* block (FIFO).
    // Buckets are LIFO-linked; taking the head would starve early entries
    // and leave a tail of never-erased blocks. Wear-aware mode breaks ties
    // on erase count instead, so worn blocks are recycled less often.
    BlockId best = static_cast<BlockId>(head);
    for (std::int32_t cur = head; cur >= 0;
         cur = blocks_[static_cast<BlockId>(cur)].bucket_next) {
      const auto b = static_cast<BlockId>(cur);
      const bool better =
          wear_tiebreak
              ? blocks_[b].erase_count < blocks_[best].erase_count
              : blocks_[b].alloc_seq < blocks_[best].alloc_seq;
      if (better) best = b;
    }
    return best;
  }
  return kInvalidBlock;
}

BlockId Ftl::choose_victim_cost_benefit() const {
  BlockId best = kInvalidBlock;
  double best_score = -1.0;
  const double ppb = static_cast<double>(config_.pages_per_block);
  for (BlockId b = 0; b < config_.block_count; ++b) {
    const Block& blk = blocks_[b];
    if (blk.state != BlockState::kFull) continue;
    const double u = static_cast<double>(blk.valid_count) / ppb;
    const double age =
        static_cast<double>(alloc_seq_ - blk.alloc_seq + 1);
    const double score =
        u >= 1.0 ? 0.0 : (1.0 - u) / (2.0 * std::max(u, 1e-9)) * age;
    if (score > best_score) {
      best_score = score;
      best = b;
    }
  }
  return best;
}

BlockId Ftl::choose_victim() const {
  switch (config_.gc_policy) {
    case GcVictimPolicy::kGreedy:
      return choose_victim_greedy(/*wear_tiebreak=*/false);
    case GcVictimPolicy::kWearAware:
      return choose_victim_greedy(/*wear_tiebreak=*/true);
    case GcVictimPolicy::kCostBenefit:
      return choose_victim_cost_benefit();
  }
  return kInvalidBlock;
}

// ---------------------------------------------------------------------------
// Garbage collection and static wear leveling.

Nanos Ftl::relocate_and_erase(BlockId victim, Frontier dest) {
  Block& blk = blocks_[victim];
  bucket_remove(victim);
  blk.state = BlockState::kOpen;  // transiently; not eligible as victim
  if (victim == coldest_full_) coldest_known_ = false;

  Nanos latency = 0;
  const Ppn first = block_first_ppn(victim);
  const double ppb = static_cast<double>(config_.pages_per_block);
  const double victim_utilization =
      static_cast<double>(blk.valid_count) / ppb;
  const std::uint64_t copies_before =
      stats_.gc_page_copies + stats_.wl_page_copies;
  stats_.victim_utilization_sum += victim_utilization;
  ++stats_.gc_invocations;

  for (std::uint32_t i = 0; i < config_.pages_per_block; ++i) {
    const Ppn ppn = first + i;
    const Lpn lpn = p2l_[ppn];
    if (lpn == kInvalidLpn) continue;
    // Copy-back: read the valid page, program it at the dest frontier, then
    // invalidate the source copy (program-first keeps the mapping valid if
    // the device dies mid-relocation).
    latency += config_.read_latency;
    latency += program_page(lpn, dest);
    p2l_[ppn] = kInvalidLpn;
    --blk.valid_count;
    --valid_pages_;
    if (dest == Frontier::kWl) {
      ++stats_.wl_page_copies;
    } else {
      ++stats_.gc_page_copies;
    }
  }

  latency += config_.erase_latency;
  const std::uint32_t erases_before = blk.erase_count++;
  erases_.max = std::max(erases_.max, blk.erase_count);
  if (erases_before == erases_.min && --erases_.blocks_at_min == 0) {
    erases_ = scan_erase_extremes();  // the last block at the minimum moved
  }
  ++stats_.block_erases;
  blk.write_ptr = 0;
  blk.valid_count = 0;
  if (config_.max_pe_cycles > 0 && blk.erase_count >= config_.max_pe_cycles) {
    // End of this block's endurance: retire it instead of recycling.
    blk.state = BlockState::kRetired;
    ++retired_blocks_;
  } else {
    blk.state = BlockState::kFree;
    free_blocks_.emplace(blk.erase_count, victim);
  }
  if (obs::enabled()) {
    const std::uint64_t copied =
        stats_.gc_page_copies + stats_.wl_page_copies - copies_before;
    static auto& gc_cycles = obs::metrics().counter(
        "chameleon_gc_cycles_total", {},
        "FTL garbage-collection cycles (one victim block relocated + erased)");
    static auto& erases = obs::metrics().counter(
        "chameleon_block_erases_total", {}, "Flash block erases across all devices");
    static auto& copies = obs::metrics().counter(
        "chameleon_gc_page_copies_total", {},
        "Valid pages copied by GC and static wear leveling");
    gc_cycles.inc();
    erases.inc();
    copies.inc(copied);
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kGcCycle)) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kGcCycle;
      e.a = copied;
      e.b = 1;  // blocks erased this cycle
      e.value = victim_utilization;
      e.has_value = true;
      sink.record(std::move(e));
    }
  }
  return latency;
}

Nanos Ftl::gc_once() {
  const BlockId victim = choose_victim();
  if (victim == kInvalidBlock) return 0;
  // A fully-valid victim reclaims no space: erasing it would consume exactly
  // as many frontier pages as it frees. Refuse rather than livelock; writes
  // continue while any free blocks remain.
  if (blocks_[victim].valid_count == config_.pages_per_block &&
      !free_blocks_.empty()) {
    return 0;
  }
  return relocate_and_erase(victim, Frontier::kGc);
}

bool Ftl::colder(BlockId a, BlockId b) const {
  const Block& x = blocks_[a];
  const Block& y = blocks_[b];
  if (x.erase_count != y.erase_count) return x.erase_count < y.erase_count;
  if (x.alloc_seq != y.alloc_seq) return x.alloc_seq < y.alloc_seq;
  return a < b;
}

BlockId Ftl::scan_coldest_full() const {
  BlockId coldest = kInvalidBlock;
  for (BlockId b = 0; b < config_.block_count; ++b) {
    if (blocks_[b].state == BlockState::kFull &&
        (coldest == kInvalidBlock || colder(b, coldest))) {
      coldest = b;
    }
  }
  return coldest;
}

Ftl::EraseExtremes Ftl::scan_erase_extremes() const {
  EraseExtremes e{blocks_[0].erase_count, blocks_[0].erase_count, 0};
  for (const Block& b : blocks_) {
    if (b.erase_count < e.min) {
      e.min = b.erase_count;
      e.blocks_at_min = 0;
    }
    if (b.erase_count == e.min) ++e.blocks_at_min;
    e.max = std::max(e.max, b.erase_count);
  }
  return e;
}

Nanos Ftl::maybe_static_wl() {
  if (config_.static_wl_delta == 0) return 0;
  if (erases_.max - erases_.min < config_.static_wl_delta) return 0;

  // The coldest full block: fewest erases, oldest data as tie-break.
  if (!coldest_known_) {
    coldest_full_ = scan_coldest_full();
    coldest_known_ = true;
  }
  const BlockId coldest = coldest_full_;
  if (coldest == kInvalidBlock ||
      blocks_[coldest].erase_count > erases_.min + config_.static_wl_delta / 4) {
    return 0;  // the cold data is not on a low-wear block; nothing to gain
  }
  // Move the cold data onto the most-worn free block (kWl frontier) so the
  // low-wear block re-enters circulation.
  return relocate_and_erase(coldest, Frontier::kWl);
}

// ---------------------------------------------------------------------------
// Host-facing operations.

bool Ftl::is_worn_out() const {
  if (config_.max_pe_cycles == 0 || retired_blocks_ == 0) return false;
  const std::uint32_t usable = config_.block_count - retired_blocks_;
  const std::uint32_t needed_for_logical =
      (config_.logical_pages() + config_.pages_per_block - 1) /
      config_.pages_per_block;
  // Keep room for the logical space, the GC watermark and the frontiers.
  return usable < needed_for_logical + config_.gc_low_blocks() + 3;
}

WriteResult Ftl::write(Lpn lpn, StreamHint hint) {
  if (lpn >= l2p_.size()) {
    throw std::out_of_range("Ftl::write: lpn beyond logical capacity");
  }
  if (faults_armed_ && fault_rng_.next_bool(faults_.write_error_prob)) {
    if (obs::enabled()) {
      static auto& write_faults = obs::metrics().counter(
          "chameleon_fault_injected_total", {{"kind", "write_error"}},
          "Injected faults fired, by kind");
      write_faults.inc();
    }
    throw TransientWriteError();
  }
  if (is_worn_out()) throw DeviceWornOut();
  WriteResult result;
  const std::uint64_t erases_before = stats_.block_erases;
  const std::uint64_t copies_before =
      stats_.gc_page_copies + stats_.wl_page_copies;

  const Frontier frontier = hint == StreamHint::kHot    ? Frontier::kHostHot
                            : hint == StreamHint::kCold ? Frontier::kHostCold
                                                        : Frontier::kHost;
  // Program the new copy first, then invalidate the old one: if the program
  // throws (device worn out mid-operation) the previous mapping stays valid.
  const Ppn old_ppn = l2p_[lpn];
  result.latency += program_page(lpn, frontier);
  if (old_ppn != kInvalidPpn) invalidate_ppn(old_ppn);
  ++stats_.host_page_writes;

  // On-demand GC: reclaim until the pool is back above the watermark. The
  // stall is charged to this write, which is how GC degrades write latency.
  if (!in_gc_) {
    in_gc_ = true;
    const std::uint32_t low = config_.gc_low_blocks();
    while (free_block_count() < low) {
      const Nanos gc_latency = gc_once();
      if (gc_latency == 0) break;  // nothing reclaimable
      result.latency += gc_latency;
    }
    result.latency += maybe_static_wl();
    in_gc_ = false;
  }

  result.gc_erases =
      static_cast<std::uint32_t>(stats_.block_erases - erases_before);
  result.gc_copies = static_cast<std::uint32_t>(
      stats_.gc_page_copies + stats_.wl_page_copies - copies_before);
  stats_.total_write_latency += result.latency;
  ++stats_.write_ops;
  if (obs::enabled()) {
    static auto& latency_hist = obs::metrics().histogram(
        "chameleon_device_write_latency_ns", 0.0, 1e8, 1000, {},
        "Per-page device write latency including GC stalls, in nanoseconds");
    latency_hist.observe(static_cast<double>(result.latency));
  }
  return result;
}

Nanos Ftl::read(Lpn lpn) {
  if (lpn >= l2p_.size()) {
    throw std::out_of_range("Ftl::read: lpn beyond logical capacity");
  }
  if (faults_armed_ && fault_rng_.next_bool(faults_.read_error_prob)) {
    if (obs::enabled()) {
      static auto& read_faults = obs::metrics().counter(
          "chameleon_fault_injected_total", {{"kind", "read_error"}},
          "Injected faults fired, by kind");
      read_faults.inc();
    }
    throw UncorrectableReadError();
  }
  ++stats_.page_reads;
  ++stats_.read_ops;
  stats_.total_read_latency += config_.read_latency;
  return config_.read_latency;
}

Nanos Ftl::background_gc(std::uint32_t max_victims,
                         double free_target_fraction) {
  if (in_gc_ || is_worn_out()) return 0;
  const auto target = static_cast<std::uint32_t>(
      free_target_fraction * static_cast<double>(config_.block_count));
  Nanos total = 0;
  in_gc_ = true;
  for (std::uint32_t v = 0; v < max_victims && free_block_count() < target;
       ++v) {
    const Nanos latency = gc_once();
    if (latency == 0) break;  // nothing profitably reclaimable
    total += latency;
  }
  in_gc_ = false;
  return total;
}

void Ftl::trim(Lpn lpn) {
  if (lpn >= l2p_.size()) {
    throw std::out_of_range("Ftl::trim: lpn beyond logical capacity");
  }
  if (l2p_[lpn] == kInvalidPpn) return;
  invalidate_ppn(l2p_[lpn]);
  l2p_[lpn] = kInvalidPpn;
  ++stats_.page_trims;
}

bool Ftl::is_mapped(Lpn lpn) const {
  return lpn < l2p_.size() && l2p_[lpn] != kInvalidPpn;
}

// ---------------------------------------------------------------------------
// Durability: bit-level device state (de)serialization.

void Ftl::save(BinaryWriter& out) const {
  out.u32(config_.block_count);
  out.u32(config_.pages_per_block);
  out.u32(config_.page_size_bytes);

  out.u64(stats_.host_page_writes);
  out.u64(stats_.gc_page_copies);
  out.u64(stats_.wl_page_copies);
  out.u64(stats_.page_reads);
  out.u64(stats_.page_trims);
  out.u64(stats_.block_erases);
  out.u64(stats_.gc_invocations);
  out.f64(stats_.victim_utilization_sum);
  out.i64(stats_.total_write_latency);
  out.i64(stats_.total_read_latency);
  out.u64(stats_.write_ops);
  out.u64(stats_.read_ops);

  out.u64(l2p_.size());
  for (const Ppn p : l2p_) out.u32(p);
  out.u64(p2l_.size());
  for (const Lpn l : p2l_) out.u32(l);
  for (const Block& b : blocks_) {
    out.u32(b.erase_count);
    out.u64(b.alloc_seq);
    out.u16(b.write_ptr);
    out.u16(b.valid_count);
    out.u8(static_cast<std::uint8_t>(b.state));
    out.i32(b.bucket_prev);
    out.i32(b.bucket_next);
  }
  // std::set iterates in key order, so the free pool serializes
  // deterministically.
  out.u64(free_blocks_.size());
  for (const auto& [erases, block] : free_blocks_) {
    out.u32(erases);
    out.u32(block);
  }
  out.u64(bucket_heads_.size());
  for (const std::int32_t head : bucket_heads_) out.i32(head);
  out.u32(min_valid_hint_);
  for (const BlockId f : frontier_) out.u32(f);
  out.u64(alloc_seq_);
  out.u64(valid_pages_);
  out.u32(retired_blocks_);
}

void Ftl::restore(BinaryReader& in) {
  if (in.u32() != config_.block_count ||
      in.u32() != config_.pages_per_block ||
      in.u32() != config_.page_size_bytes) {
    throw std::runtime_error(
        "Ftl::restore: device geometry does not match the checkpoint");
  }

  stats_.host_page_writes = in.u64();
  stats_.gc_page_copies = in.u64();
  stats_.wl_page_copies = in.u64();
  stats_.page_reads = in.u64();
  stats_.page_trims = in.u64();
  stats_.block_erases = in.u64();
  stats_.gc_invocations = in.u64();
  stats_.victim_utilization_sum = in.f64();
  stats_.total_write_latency = in.i64();
  stats_.total_read_latency = in.i64();
  stats_.write_ops = in.u64();
  stats_.read_ops = in.u64();

  if (in.u64() != l2p_.size()) {
    throw std::runtime_error("Ftl::restore: l2p size mismatch");
  }
  for (Ppn& p : l2p_) p = in.u32();
  if (in.u64() != p2l_.size()) {
    throw std::runtime_error("Ftl::restore: p2l size mismatch");
  }
  for (Lpn& l : p2l_) l = in.u32();
  for (Block& b : blocks_) {
    b.erase_count = in.u32();
    b.alloc_seq = in.u64();
    b.write_ptr = in.u16();
    b.valid_count = in.u16();
    const std::uint8_t state = in.u8();
    if (state > static_cast<std::uint8_t>(BlockState::kRetired)) {
      throw std::runtime_error("Ftl::restore: invalid block state");
    }
    b.state = static_cast<BlockState>(state);
    b.bucket_prev = in.i32();
    b.bucket_next = in.i32();
  }
  const std::uint64_t free_count = in.u64();
  if (free_count > config_.block_count) {
    throw std::runtime_error("Ftl::restore: free pool larger than device");
  }
  free_blocks_.clear();
  for (std::uint64_t i = 0; i < free_count; ++i) {
    const std::uint32_t erases = in.u32();
    const BlockId block = in.u32();
    if (block >= config_.block_count) {
      throw std::runtime_error("Ftl::restore: free block id out of range");
    }
    free_blocks_.emplace(erases, block);
  }
  if (in.u64() != bucket_heads_.size()) {
    throw std::runtime_error("Ftl::restore: bucket head count mismatch");
  }
  for (std::int32_t& head : bucket_heads_) head = in.i32();
  min_valid_hint_ = in.u32();
  for (BlockId& f : frontier_) f = in.u32();
  alloc_seq_ = in.u64();
  valid_pages_ = in.u64();
  retired_blocks_ = in.u32();
  in_gc_ = false;
  faults_armed_ = false;
  erases_ = scan_erase_extremes();
  coldest_known_ = false;
}

void Ftl::check_invariants() const {
  std::uint64_t valid_total = 0;
  for (BlockId b = 0; b < config_.block_count; ++b) {
    const Block& blk = blocks_[b];
    std::uint32_t valid_in_block = 0;
    for (std::uint32_t i = 0; i < config_.pages_per_block; ++i) {
      const Ppn ppn = block_first_ppn(b) + i;
      const Lpn lpn = p2l_[ppn];
      if (lpn == kInvalidLpn) continue;
      ++valid_in_block;
      if (l2p_[lpn] != ppn) {
        throw std::logic_error("Ftl invariant: l2p/p2l mismatch");
      }
      if (i >= blk.write_ptr && blk.state != BlockState::kFree) {
        throw std::logic_error("Ftl invariant: valid page beyond write_ptr");
      }
    }
    if (valid_in_block != blk.valid_count) {
      throw std::logic_error("Ftl invariant: valid_count mismatch");
    }
    if ((blk.state == BlockState::kFree || blk.state == BlockState::kRetired) &&
        blk.valid_count != 0) {
      throw std::logic_error("Ftl invariant: free/retired block with valid pages");
    }
    valid_total += valid_in_block;
  }
  if (valid_total != valid_pages_) {
    throw std::logic_error("Ftl invariant: global valid page count mismatch");
  }
  // Every mapped lpn must round-trip.
  for (Lpn l = 0; l < l2p_.size(); ++l) {
    if (l2p_[l] != kInvalidPpn && p2l_[l2p_[l]] != l) {
      throw std::logic_error("Ftl invariant: dangling l2p entry");
    }
  }
  // The static-WL cache must equal a full scan.
  const EraseExtremes e = scan_erase_extremes();
  if (e.min != erases_.min || e.max != erases_.max ||
      e.blocks_at_min != erases_.blocks_at_min) {
    throw std::logic_error("Ftl invariant: cached erase extremes mismatch");
  }
  if (coldest_known_ && scan_coldest_full() != coldest_full_) {
    throw std::logic_error("Ftl invariant: cached coldest block mismatch");
  }
}

}  // namespace chameleon::flashsim
