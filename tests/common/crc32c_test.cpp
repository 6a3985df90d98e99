// CRC32C: the bytewise table and the SSE4.2 path behind crc32c() must give
// the same values: on the RFC 3720 vectors, on every short length at every
// alignment, and when chained across any split.
#include "common/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/crc32c_paths.hpp"
#include "common/rng.hpp"

namespace chameleon {
namespace {

using CrcFn = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

struct CrcPath {
  const char* name;
  CrcFn fn;
  bool hardware;
};

// Without this gtest prints the struct's bytes, function pointers included,
// and ctest's test names would change from run to run.
void PrintTo(const CrcPath& path, std::ostream* os) { *os << path.name; }

class Crc32cPath : public ::testing::TestWithParam<CrcPath> {
 protected:
  void SetUp() override {
    if (GetParam().hardware && !crc32c_detail::hardware_supported()) {
      GTEST_SKIP() << "this CPU has no SSE4.2";
    }
  }
  std::uint32_t crc(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0) const {
    return GetParam().fn(data, seed);
  }
};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

TEST_P(Crc32cPath, Rfc3720Vectors) {
  // RFC 3720 Appendix B.4, 32-byte iSCSI test patterns.
  std::vector<std::uint8_t> buf(32, 0x00);
  EXPECT_EQ(crc(buf), 0x8A9136AAu);
  buf.assign(32, 0xFF);
  EXPECT_EQ(crc(buf), 0x62A8AB43u);
  for (std::size_t i = 0; i < 32; ++i) buf[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc(buf), 0x46DD794Eu);
  for (std::size_t i = 0; i < 32; ++i) {
    buf[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc(buf), 0x113FDB5Cu);
  // The CRC catalogue's check value.
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc({reinterpret_cast<const std::uint8_t*>(kCheck.data()),
                 kCheck.size()}),
            0xE3069283u);
  EXPECT_EQ(crc({}), 0u);
}

TEST_P(Crc32cPath, ChainsAcrossEverySplit) {
  const std::vector<std::uint8_t> buf = random_bytes(1024, 7);
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = crc(all);
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    ASSERT_EQ(crc(all.subspan(split), crc(all.first(split))), whole)
        << "split at " << split;
  }
}

TEST_P(Crc32cPath, AgreesWithTheTableAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buf = random_bytes(1100 + 16, 11);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const auto slice = all.subspan(offset, len);
      ASSERT_EQ(crc(slice, 0x9E3779B9u),
                crc32c_detail::table(slice, 0x9E3779B9u))
          << "offset " << offset << " length " << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, Crc32cPath,
    ::testing::Values(CrcPath{"table", &crc32c_detail::table, false},
                      CrcPath{"hardware", &crc32c_detail::hardware, true},
                      CrcPath{"dispatched", &crc32c, false}),
    [](const ::testing::TestParamInfo<CrcPath>& path) {
      return std::string(path.param.name);
    });

}  // namespace
}  // namespace chameleon
