// Systematic Reed-Solomon codec over GF(2^8) built from a Cauchy generator
// matrix. RS(n, k) in the paper's notation: n total shards, k data shards,
// m = n - k parity shards. The paper's configuration is RS(6,4).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ec/matrix.hpp"

namespace chameleon::ec {

class ReedSolomon {
 public:
  /// n = total shards (data + parity), k = data shards. Requires k < n <= 255.
  ReedSolomon(std::size_t n, std::size_t k);

  std::size_t total_shards() const { return n_; }
  std::size_t data_shards() const { return k_; }
  std::size_t parity_shards() const { return n_ - k_; }

  /// Compute parity shards from data shards. All shards must share one size.
  /// data.size() == k, parity.size() == m; parity buffers are overwritten.
  void encode(const std::vector<std::vector<std::uint8_t>>& data,
              std::vector<std::vector<std::uint8_t>>& parity) const;

  /// Convenience: encode a contiguous payload. Pads the tail shard with
  /// zeroes; returns all n shards (data first, then parity).
  std::vector<std::vector<std::uint8_t>> encode_object(
      const std::vector<std::uint8_t>& payload) const;

  /// Reconstruct the original data shards from any >= k survivors.
  /// `shards[i]` is shard i's bytes or std::nullopt if lost. On success the
  /// returned vector holds the k data shards. Throws std::runtime_error if
  /// fewer than k shards survive.
  std::vector<std::vector<std::uint8_t>> reconstruct_data(
      const std::vector<std::optional<std::vector<std::uint8_t>>>& shards)
      const;

  /// Reassemble a payload of `payload_bytes` from data shards.
  static std::vector<std::uint8_t> join(
      const std::vector<std::vector<std::uint8_t>>& data,
      std::size_t payload_bytes);

  /// Shard size for a payload of `bytes` (ceil division by k).
  std::size_t shard_size(std::size_t bytes) const {
    return (bytes + k_ - 1) / k_;
  }

  /// Verify that the given full shard set is consistent (parity matches).
  bool verify(const std::vector<std::vector<std::uint8_t>>& shards) const;

 private:
  std::size_t n_;
  std::size_t k_;
  /// Full generator: k identity rows followed by m Cauchy parity rows.
  GfMatrix generator_;
};

}  // namespace chameleon::ec
