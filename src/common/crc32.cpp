#include "common/crc32.hpp"

namespace hpm {
namespace {

/// Slice-by-16 tables for the reflected polynomial 0xEDB88320. Row 0 is
/// the classic byte-at-a-time (Sarwate) table; row k advances a byte's
/// contribution by k further zero bytes, so sixteen lookups fold sixteen
/// input bytes into the state at once. Plain arrays, not std::array:
/// unoptimized (sanitizer) builds would otherwise pay a call per lookup.
struct Tables {
  std::uint32_t row[16][256];
};

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t.row[0][i] = c;
  }
  for (int r = 1; r < 16; ++r) {
    for (int i = 0; i < 256; ++i) {
      const std::uint32_t prev = t.row[r - 1][i];
      t.row[r][i] = (prev >> 8) ^ t.row[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian word from bytes: the reflected CRC consumes the lowest
/// address first, whatever the host's byte order.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kTables.row;
  std::uint32_t c = state_;
  for (; len >= 16; len -= 16, p += 16) {
    const std::uint32_t w0 = load_le32(p) ^ c;
    const std::uint32_t w1 = load_le32(p + 4);
    const std::uint32_t w2 = load_le32(p + 8);
    const std::uint32_t w3 = load_le32(p + 12);
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^ t[13][(w0 >> 16) & 0xFFu] ^
        t[12][w0 >> 24] ^ t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^ t[7][w2 & 0xFFu] ^
        t[6][(w2 >> 8) & 0xFFu] ^ t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^ t[1][(w3 >> 16) & 0xFFu] ^
        t[0][w3 >> 24];
  }
  for (; len > 0; --len, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t Crc32::of(const void* data, std::size_t len) noexcept {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace hpm
