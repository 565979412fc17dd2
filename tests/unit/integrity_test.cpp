// Integrity kernels: the slice-by-16 CRC-32 against a byte-at-a-time
// reference that lives only here, StreamDigest's independence from how
// its input is chunked, and the digest MigContext reports on the serial
// (computed on demand) and pipelined (tapped chunk by chunk) paths.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "apps/linpack.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "mig/context.hpp"
#include "msrm/stream.hpp"

namespace hpm {
namespace {

/// Sarwate's byte-at-a-time CRC-32 (reflected 0xEDB88320), the loop the
/// library's kernel replaced: every value must stay bit-identical to it.
std::uint32_t reference_crc(const std::uint8_t* p, std::size_t len) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// StreamDigest as specified: FNV-1a 64 folded with the CRC-32 through a
/// golden-ratio multiply, computed with the reference CRC.
std::uint64_t reference_digest(const std::uint8_t* p, std::size_t len) {
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    fnv ^= p[i];
    fnv *= 0x100000001b3ull;
  }
  return fnv ^ (static_cast<std::uint64_t>(reference_crc(p, len)) * 0x9E3779B97F4A7C15ull);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

TEST(Crc32, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32::of(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32::of(nullptr, 0), 0u);
}

TEST(Crc32, EveryLengthAndAlignmentMatchesTheBytewiseReference) {
  // Lengths 0..300 cross the 16-byte block boundary many times; start
  // offsets 0..15 put the blocks at every alignment.
  const Bytes data = random_bytes(300 + 16, 7);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = data.data() + offset;
      ASSERT_EQ(Crc32::of(p, len), reference_crc(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, SplitUpdatesEqualOneShot) {
  const Bytes data = random_bytes(4099, 11);
  const std::uint32_t whole = Crc32::of(data.data(), data.size());
  for (const std::size_t step : {1u, 3u, 15u, 16u, 17u, 64u, 1000u}) {
    Crc32 crc;
    for (std::size_t at = 0; at < data.size(); at += step) {
      crc.update(data.data() + at, std::min(step, data.size() - at));
    }
    EXPECT_EQ(crc.value(), whole) << "step " << step;
  }
  for (std::size_t cut = 0; cut <= 40; ++cut) {
    Crc32 crc;
    crc.update(data.data(), cut);
    crc.update(data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc.value(), whole) << "cut " << cut;
  }
}

TEST(StreamDigest, MatchesTheReferenceCompositionAndIgnoresChunking) {
  const Bytes data = random_bytes(70001, 13);
  const std::uint64_t whole = msrm::StreamDigest::of(data);
  EXPECT_EQ(whole, reference_digest(data.data(), data.size()));
  for (const std::size_t chunk : {1u, 7u, 16u, 4096u, 65536u}) {
    msrm::StreamDigest d;
    for (std::size_t at = 0; at < data.size(); at += chunk) {
      d.update({data.data() + at, std::min(chunk, data.size() - at)});
    }
    EXPECT_EQ(d.value(), whole) << "chunk " << chunk;
  }
}

/// Collect linpack (n = 60) at its 5th poll-point, optionally streaming
/// the collection through a sink of `chunk_bytes` slices.
struct Collected {
  Bytes stream;
  Bytes streamed;  ///< concatenated sink output (pipelined only)
  std::uint64_t digest = 0;
};

Collected collect_linpack(std::size_t chunk_bytes) {
  ti::TypeTable types;
  apps::linpack_register_types(types);
  mig::MigContext ctx(types);
  ctx.set_migrate_at_poll(5);
  Collected out;
  if (chunk_bytes > 0) {
    ctx.set_collect_sink(chunk_bytes, [&out](std::span<const std::uint8_t> bytes) {
      out.streamed.insert(out.streamed.end(), bytes.begin(), bytes.end());
    });
  }
  apps::LinpackResult result;
  EXPECT_THROW(apps::linpack_program(ctx, 60, 1, &result), mig::MigrationExit);
  out.digest = ctx.stream_digest();
  EXPECT_EQ(ctx.stream_digest(), out.digest) << "the digest is memoized, not recomputed";
  out.stream = ctx.take_stream();
  EXPECT_EQ(ctx.stream_digest(), out.digest) << "a read digest survives take_stream()";
  return out;
}

TEST(ContextDigest, SerialPathComputesTheDigestOfTheStreamOnDemand) {
  const Collected serial = collect_linpack(0);
  ASSERT_FALSE(serial.stream.empty());
  EXPECT_EQ(serial.digest, msrm::StreamDigest::of(serial.stream));
}

TEST(ContextDigest, PipelinedTapEqualsTheSerialDigest) {
  const Collected serial = collect_linpack(0);
  const Collected piped = collect_linpack(1000);
  EXPECT_EQ(piped.streamed, piped.stream) << "the sink carries the whole stream, in order";
  EXPECT_EQ(piped.stream, serial.stream);
  EXPECT_EQ(piped.digest, msrm::StreamDigest::of(piped.stream));
  EXPECT_EQ(piped.digest, serial.digest);
}

TEST(ContextDigest, DigestBeforeCollectionIsZeroAndAfterTakeWithoutReadThrows) {
  ti::TypeTable types;
  apps::linpack_register_types(types);
  mig::MigContext ctx(types);
  EXPECT_EQ(ctx.stream_digest(), 0u);
  ctx.set_migrate_at_poll(2);
  apps::LinpackResult result;
  EXPECT_THROW(apps::linpack_program(ctx, 20, 1, &result), mig::MigrationExit);
  const Bytes stream = ctx.take_stream();
  EXPECT_FALSE(stream.empty());
  EXPECT_THROW((void)ctx.stream_digest(), MigrationError);
}

}  // namespace
}  // namespace hpm
