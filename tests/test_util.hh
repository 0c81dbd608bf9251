/**
 * @file
 * Shared helpers for the test suite: a scaled-down GPU configuration that
 * keeps end-to-end tests fast while exercising every subsystem, and a
 * running FNV-1a checksum for pinning long deterministic sequences.
 */

#ifndef SW_TESTS_TEST_UTIL_HH
#define SW_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace sw::test {

/** FNV-1a offset basis: the checksum of an empty sequence. */
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Fold the eight little-endian bytes of @p value into FNV-1a hash @p h. */
inline std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a over a byte buffer (checkpoint images). */
inline std::uint64_t
fnvBytes(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = kFnvBasis;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** A small machine: 4 SMs, 8 warps each, tiny TLBs. */
inline GpuConfig
smallConfig()
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.numSms = 4;
    cfg.maxWarpsPerSm = 8;
    cfg.l1TlbEntries = 8;
    cfg.l1TlbMshrs = 8;
    cfg.l2TlbEntries = 64;
    cfg.l2TlbWays = 8;
    cfg.l2TlbMshrs = 16;
    cfg.numPtws = 4;
    cfg.pwbEntries = 8;
    cfg.softPwbEntries = 8;
    cfg.pwWarpThreads = 8;
    return cfg;
}

/** Small machine in SoftWalker mode with In-TLB MSHR enabled. */
inline GpuConfig
smallSoftWalkerConfig()
{
    GpuConfig cfg = smallConfig();
    cfg.mode = TranslationMode::SoftWalker;
    cfg.inTlbMshrMax = 32;
    return cfg;
}

} // namespace sw::test

#endif // SW_TESTS_TEST_UTIL_HH
