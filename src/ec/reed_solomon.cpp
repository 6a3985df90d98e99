#include "ec/reed_solomon.hpp"

#include <algorithm>
#include <stdexcept>

#include "ec/gf256.hpp"

namespace chameleon::ec {

ReedSolomon::ReedSolomon(std::size_t n, std::size_t k)
    : n_(n), k_(k), generator_(n == 0 || k == 0 ? 1 : n, k == 0 ? 1 : k) {
  if (k == 0 || n <= k || n > 255) {
    throw std::invalid_argument("ReedSolomon: need 0 < k < n <= 255");
  }
  // Systematic generator: top k rows identity, bottom m rows Cauchy.
  const GfMatrix parity_rows = GfMatrix::cauchy(n - k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      generator_.at(i, j) = (i == j) ? 1 : 0;
    }
  }
  for (std::size_t i = 0; i < n - k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      generator_.at(k + i, j) = parity_rows.at(i, j);
    }
  }
}

void ReedSolomon::encode(
    const std::vector<std::vector<std::uint8_t>>& data,
    std::vector<std::vector<std::uint8_t>>& parity) const {
  if (data.size() != k_) {
    throw std::invalid_argument("ReedSolomon::encode: expected k data shards");
  }
  if (parity.size() != parity_shards()) {
    throw std::invalid_argument("ReedSolomon::encode: expected m parity shards");
  }
  const std::size_t shard_bytes = data[0].size();
  for (const auto& shard : data) {
    if (shard.size() != shard_bytes) {
      throw std::invalid_argument("ReedSolomon::encode: ragged data shards");
    }
  }
  const auto& gf = Gf256::instance();
  for (auto& shard : parity) shard.assign(shard_bytes, 0);
  for (std::size_t p = 0; p < parity.size(); ++p) {
    for (std::size_t d = 0; d < k_; ++d) {
      gf.mul_add(generator_.at(k_ + p, d), data[d], parity[p]);
    }
  }
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::encode_object(
    const std::vector<std::uint8_t>& payload) const {
  const std::size_t shard_bytes = std::max<std::size_t>(1, shard_size(payload.size()));
  std::vector<std::vector<std::uint8_t>> shards(n_);
  for (std::size_t d = 0; d < k_; ++d) {
    shards[d].assign(shard_bytes, 0);
    const std::size_t offset = d * shard_bytes;
    if (offset < payload.size()) {
      const std::size_t len = std::min(shard_bytes, payload.size() - offset);
      std::copy_n(payload.begin() + static_cast<std::ptrdiff_t>(offset), len,
                  shards[d].begin());
    }
  }
  std::vector<std::vector<std::uint8_t>> data(shards.begin(),
                                              shards.begin() + static_cast<std::ptrdiff_t>(k_));
  std::vector<std::vector<std::uint8_t>> parity(parity_shards());
  encode(data, parity);
  for (std::size_t p = 0; p < parity.size(); ++p) {
    shards[k_ + p] = std::move(parity[p]);
  }
  return shards;
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::reconstruct_data(
    const std::vector<std::optional<std::vector<std::uint8_t>>>& shards)
    const {
  if (shards.size() != n_) {
    throw std::invalid_argument("ReedSolomon::reconstruct_data: need n slots");
  }
  // Fast path: all data shards present.
  bool all_data = true;
  for (std::size_t d = 0; d < k_; ++d) {
    if (!shards[d].has_value()) {
      all_data = false;
      break;
    }
  }
  if (all_data) {
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(k_);
    for (std::size_t d = 0; d < k_; ++d) out.push_back(*shards[d]);
    return out;
  }

  // Collect the first k surviving shards (any mix of data/parity works).
  std::vector<std::size_t> rows;
  std::vector<const std::vector<std::uint8_t>*> survivors;
  for (std::size_t i = 0; i < n_ && rows.size() < k_; ++i) {
    if (shards[i].has_value()) {
      rows.push_back(i);
      survivors.push_back(&*shards[i]);
    }
  }
  if (rows.size() < k_) {
    throw std::runtime_error(
        "ReedSolomon::reconstruct_data: fewer than k shards survive");
  }
  const std::size_t shard_bytes = survivors[0]->size();
  for (const auto* s : survivors) {
    if (s->size() != shard_bytes) {
      throw std::invalid_argument("ReedSolomon: ragged surviving shards");
    }
  }

  // survivors = G[rows] * data  =>  data = G[rows]^-1 * survivors.
  const GfMatrix decode = generator_.select_rows(rows).inverted();
  const auto& gf = Gf256::instance();
  std::vector<std::vector<std::uint8_t>> data(k_);
  for (auto& shard : data) shard.assign(shard_bytes, 0);
  for (std::size_t d = 0; d < k_; ++d) {
    for (std::size_t s = 0; s < k_; ++s) {
      gf.mul_add(decode.at(d, s), *survivors[s], data[d]);
    }
  }
  return data;
}

std::vector<std::uint8_t> ReedSolomon::join(
    const std::vector<std::vector<std::uint8_t>>& data,
    std::size_t payload_bytes) {
  std::vector<std::uint8_t> out;
  out.reserve(payload_bytes);
  for (const auto& shard : data) {
    for (const std::uint8_t b : shard) {
      if (out.size() == payload_bytes) return out;
      out.push_back(b);
    }
  }
  if (out.size() != payload_bytes) {
    throw std::invalid_argument("ReedSolomon::join: shards shorter than payload");
  }
  return out;
}

bool ReedSolomon::verify(
    const std::vector<std::vector<std::uint8_t>>& shards) const {
  if (shards.size() != n_) return false;
  std::vector<std::vector<std::uint8_t>> data(
      shards.begin(), shards.begin() + static_cast<std::ptrdiff_t>(k_));
  std::vector<std::vector<std::uint8_t>> parity(parity_shards());
  encode(data, parity);
  for (std::size_t p = 0; p < parity.size(); ++p) {
    if (parity[p] != shards[k_ + p]) return false;
  }
  return true;
}

}  // namespace chameleon::ec
