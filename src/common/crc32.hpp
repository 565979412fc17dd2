// CRC-32 (IEEE 802.3 polynomial, reflected) used to seal migration streams.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpm {

/// Incremental CRC-32 accumulator.
///
/// The migration stream trailer stores `Crc32::finish(update(...))` over all
/// preceding bytes so a truncated or corrupted transfer is detected before
/// any block is materialized on the destination.
///
/// The kernel is portable slice-by-16: sixteen bytes per step through
/// sixteen 256-entry tables, then a byte-wise tail. Its values are those
/// of the classic byte-at-a-time loop (check value 0xCBF43926 for
/// "123456789") on any host byte order.
class Crc32 {
 public:
  /// Feed `len` bytes into the running (pre-finalization) state.
  void update(const void* data, std::size_t len) noexcept;

  /// Finalized CRC value of everything fed so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  /// One-shot convenience.
  static std::uint32_t of(const void* data, std::size_t len) noexcept;

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace hpm
