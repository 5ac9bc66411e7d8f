#ifndef MARITIME_SNAPSHOT_SNAPSHOT_H_
#define MARITIME_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "snapshot/codec.h"

namespace maritime::snapshot {

/// File magic "MSNP" (little-endian u32) and the current container version.
/// The container frames an opaque payload; the payload's internal layout is
/// versioned per section (see Writer::BeginSection), so the container
/// version only changes when the header itself changes.
inline constexpr uint32_t kFileMagic = 0x504E534Du;  // "MSNP"
inline constexpr uint32_t kFileVersion = 1;

/// Fixed-size file header preceding the payload:
///   u32 magic | u32 container version | u64 payload size | u32 payload CRC32
inline constexpr size_t kFileHeaderSize = 20;

/// Frames `payload` with the snapshot header (magic, version, size, CRC32)
/// and returns the complete file image.
std::string EncodeSnapshotFile(std::string_view payload);

/// Validates a complete file image and returns a view of its payload.
/// Failure modes, all without reading past the buffer:
///   - shorter than the header, or shorter than the recorded payload size
///     -> Corruption ("truncated")
///   - wrong magic -> InvalidArgument (not a snapshot file)
///   - container version 0 (never written) -> Corruption; any other
///     version but kFileVersion -> Unimplemented
///   - trailing garbage after the payload, or CRC mismatch -> Corruption
Result<std::string_view> DecodeSnapshotFile(std::string_view file);

/// Writes `payload` framed as a snapshot file to `path` (IoError on failure).
Status WriteSnapshotFile(const std::string& path, std::string_view payload);

/// Reads `path`, validates the header + checksum, and returns the payload.
Result<std::string> ReadSnapshotFile(const std::string& path);

}  // namespace maritime::snapshot

#endif  // MARITIME_SNAPSHOT_SNAPSHOT_H_
