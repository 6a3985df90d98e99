// Checkpoint memory bound (ctest label `durability`): saving and loading a
// checkpoint must not hold a copy of the state. This executable replaces
// the global operator new to record the largest single allocation, and
// checks it while a store holding 24 MiB of fragments is saved and loaded.
// It is its own executable because the replacement applies to everything
// linked with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/chameleon.hpp"
#include "durability/checkpoint.hpp"
#include "fault/digest.hpp"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};

void* tracked_alloc(std::size_t n) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return tracked_alloc(n); }
void* operator new[](std::size_t n) { return tracked_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace chameleon::durability {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kLargestAllowed = 4 * kMiB;

/// Largest single operator-new block requested while `fn` runs.
template <typename Fn>
std::size_t largest_allocation(Fn&& fn) {
  g_largest.store(0, std::memory_order_relaxed);
  g_tracking.store(true, std::memory_order_relaxed);
  fn();
  g_tracking.store(false, std::memory_order_relaxed);
  return g_largest.load(std::memory_order_relaxed);
}

core::ChameleonConfig replicated_config() {
  core::ChameleonConfig cfg;
  cfg.servers = 8;
  cfg.ssd.pages_per_block = 64;
  cfg.ssd.block_count = 96;  // 24 MiB per device
  cfg.ssd.static_wl_delta = 0;
  cfg.kv.initial_scheme = meta::RedState::kRep;
  return cfg;
}

TEST(CheckpointMemory, SaveAndLoadAllocateNoStateSizedBlock) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ckpt_memory";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // 2,048 values x 4 KiB, three replicas each: 24 MiB of fragments.
  core::Chameleon original(replicated_config());
  std::vector<std::uint8_t> value(4 * kKiB);
  for (int i = 0; i < 2048; ++i) {
    std::fill(value.begin(), value.end(), static_cast<std::uint8_t>(i));
    original.client().put("key-" + std::to_string(i), value);
  }
  std::uint64_t fragment_bytes = 0;
  original.store().payload_store()->for_each(
      [&](ServerId, cluster::FragmentKey, const std::vector<std::uint8_t>& b) {
        fragment_bytes += b.size();
      });
  ASSERT_GE(fragment_bytes, 24 * kMiB);

  CheckpointMeta written;
  const std::size_t save_peak = largest_allocation(
      [&] { written = save_checkpoint(dir, 1, original, 1, 1); });
  EXPECT_GT(fs::file_size(checkpoint_path(dir, 1)), fragment_bytes);
  EXPECT_LE(save_peak, kLargestAllowed);

  core::Chameleon restored(replicated_config());
  const std::size_t load_peak = largest_allocation(
      [&] { load_checkpoint(checkpoint_path(dir, 1), restored); });
  EXPECT_LE(load_peak, kLargestAllowed);
  EXPECT_EQ(fault::cluster_digest(restored.store()), written.digest);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace chameleon::durability
