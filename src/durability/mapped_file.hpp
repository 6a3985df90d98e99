// A read-only memory map of a whole file. Recovery reads checkpoints and WAL
// segments through it, so a restart holds no heap copy of either: the bytes
// stay in the page cache, and the map releases them on destruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>

namespace chameleon::durability {

class MappedFile {
 public:
  /// Maps `path` read-only; throws std::runtime_error if it cannot. The
  /// file must not shrink while mapped (the data directory is this
  /// process's own).
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace chameleon::durability
