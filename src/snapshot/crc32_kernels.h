#ifndef MARITIME_SNAPSHOT_CRC32_KERNELS_H_
#define MARITIME_SNAPSHOT_CRC32_KERNELS_H_

// The two CRC-32 kernels behind snapshot::Crc32, exposed so tests can check
// each one on every host regardless of which one the CPU selects. Not part of
// the snapshot API: callers use snapshot::Crc32.

#include <cstdint>
#include <string_view>

// The carry-less-multiply kernel exists only in x86-64 builds by a compiler
// that takes per-function target attributes; elsewhere slicing-by-16 is the
// only kernel.
#if defined(__x86_64__) && defined(__GNUC__)
#define MARITIME_CRC32_CLMUL 1
#else
#define MARITIME_CRC32_CLMUL 0
#endif

namespace maritime::snapshot::internal {

/// Slicing-by-16 table kernel; same values as snapshot::Crc32.
uint32_t Crc32Sliced(std::string_view bytes);

/// True iff this build has the carry-less-multiply kernel and the CPU
/// executes PCLMULQDQ.
bool ClmulSupported();

#if MARITIME_CRC32_CLMUL
/// PCLMULQDQ folding over the `size & ~15` prefix of inputs of at least 64
/// bytes, then the table loop for the rest; same values as snapshot::Crc32.
/// Requires ClmulSupported().
uint32_t Crc32Clmul(std::string_view bytes);
#endif

}  // namespace maritime::snapshot::internal

#endif  // MARITIME_SNAPSHOT_CRC32_KERNELS_H_
