#include "snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>

namespace maritime::snapshot {
namespace {

using FileHeader = std::array<char, kFileHeaderSize>;

FileHeader EncodeHeader(std::string_view payload) {
  const uint32_t magic = kFileMagic;
  const uint32_t version = kFileVersion;
  const uint64_t size = payload.size();
  const uint32_t crc = Crc32(payload);
  FileHeader h{};
  std::memcpy(h.data(), &magic, sizeof(magic));
  std::memcpy(h.data() + 4, &version, sizeof(version));
  std::memcpy(h.data() + 8, &size, sizeof(size));
  std::memcpy(h.data() + 16, &crc, sizeof(crc));
  return h;
}

/// Validates `header` (the first bytes of a file, at most kFileHeaderSize)
/// against the `payload` that follows it in the file.
Status CheckFrame(std::string_view header, std::string_view payload) {
  Reader r(header);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&payload_size) ||
      !r.U32(&crc)) {
    return Status::Corruption("snapshot: truncated file header");
  }
  if (magic != kFileMagic) {
    return Status::InvalidArgument("snapshot: bad magic (not a snapshot file)");
  }
  if (Status s = CheckVersion(version, kFileVersion, kFileVersion,
                              "file container");
      !s.ok()) {
    return s;
  }
  if (payload_size != payload.size()) {
    return Status::Corruption(
        payload_size > payload.size()
            ? "snapshot: truncated payload"
            : "snapshot: trailing bytes after payload");
  }
  if (Crc32(payload) != crc) {
    return Status::Corruption("snapshot: payload checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSnapshotFile(std::string_view payload) {
  const FileHeader header = EncodeHeader(payload);
  std::string out;
  out.reserve(header.size() + payload.size());
  out.append(header.data(), header.size());
  out.append(payload);
  return out;
}

Result<std::string_view> DecodeSnapshotFile(std::string_view file) {
  const size_t header_size = std::min(file.size(), kFileHeaderSize);
  Status s = CheckFrame(file.substr(0, header_size), file.substr(header_size));
  if (!s.ok()) return s;
  return file.substr(kFileHeaderSize);
}

Status WriteSnapshotFile(const std::string& path, std::string_view payload) {
  const FileHeader header = EncodeHeader(payload);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IoError("snapshot: cannot open " + path);
  f.write(header.data(), static_cast<std::streamsize>(header.size()));
  f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  f.flush();
  if (!f) return Status::IoError("snapshot: write failed for " + path);
  return Status::OK();
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::IoError("snapshot: cannot open " + path);
  const std::streamoff file_size = f.tellg();
  if (file_size < 0) return Status::IoError("snapshot: cannot size " + path);
  f.seekg(0);
  // The header and the payload are read into separate buffers, so the
  // payload string is returned as read, without another full copy.
  FileHeader header{};
  const size_t header_size =
      std::min(static_cast<size_t>(file_size), kFileHeaderSize);
  if (!f.read(header.data(), static_cast<std::streamsize>(header_size))) {
    return Status::IoError("snapshot: read failed for " + path);
  }
  std::string payload(static_cast<size_t>(file_size) - header_size, '\0');
  if (!f.read(payload.data(), static_cast<std::streamsize>(payload.size()))) {
    return Status::IoError("snapshot: read failed for " + path);
  }
  Status s = CheckFrame(std::string_view(header.data(), header_size), payload);
  if (!s.ok()) return s;
  return payload;
}

}  // namespace maritime::snapshot
