#ifndef MARITIME_SNAPSHOT_CODEC_H_
#define MARITIME_SNAPSHOT_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace maritime::snapshot {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
/// Guards every snapshot payload against torn writes and bit rot.
uint32_t Crc32(std::string_view bytes);

namespace detail {
/// The fixed-width types a record field may have on the wire.
template <typename T>
inline constexpr bool kWireField =
    std::is_same_v<T, uint8_t> || std::is_same_v<T, uint32_t> ||
    std::is_same_v<T, uint64_t> || std::is_same_v<T, int32_t> ||
    std::is_same_v<T, int64_t> || std::is_same_v<T, double>;
}  // namespace detail

/// Append-only little-endian encoder for snapshot payloads. All multi-byte
/// integers are fixed-width little-endian so snapshots are portable across
/// hosts of the same endianness class (the only class we target).
///
/// Sections give the payload a self-describing skeleton: BeginSection writes
/// a 4-byte tag, a one-byte format version and a length placeholder that
/// EndSection backpatches, so a reader can verify it consumed exactly the
/// bytes a component wrote (catching format skew between writer and reader).
class Writer {
 public:
  /// Appends `fields` back to back, the same bytes as one U8/U32/U64/I32/
  /// I64/F64 call per field in order, behind one bounds check: a record's
  /// fields are one Put. Only the fixed-width types the Reader reads back
  /// are accepted, so a bool or an enum names its wire width at the call
  /// (`uint8_t{flag}`), and a count is passed as `uint64_t{n}` whatever the
  /// width of size_t.
  template <typename... Fields>
  void Put(Fields... fields) {
    static_assert(sizeof...(Fields) > 0);
    static_assert((detail::kWireField<Fields> && ...),
                  "Writer::Put takes uint8_t, uint32_t, uint64_t, int32_t, "
                  "int64_t and double fields only");
    constexpr size_t n = (sizeof(Fields) + ...);
    // The cursor lives in a local: the stores below write through a char*,
    // which may alias the members, so each member read is done once.
    const size_t at = size_;
    if (capacity_ - at < n) Grow(n);
    char* out = buf_.get() + at;
    ((std::memcpy(out, &fields, sizeof(fields)), out += sizeof(fields)), ...);
    size_ = at + n;
  }

  void U8(uint8_t v) { Put(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I32(int32_t v) { Put(v); }
  void I64(int64_t v) { Put(v); }
  void F64(double v) { Put(v); }

  /// Length-prefixed string (u64 byte count + raw bytes).
  void Str(std::string_view s) {
    U64(s.size());
    // An empty view may carry a null data(), which memcpy must not see.
    if (!s.empty()) AppendRaw(s.data(), s.size());
  }

  /// Makes room for `n` bytes in total. Capacity never changes the bytes;
  /// a writer reserved to the size it will reach never copies its buffer
  /// as it grows.
  void Reserve(size_t n) {
    if (n > capacity_) Reallocate(n);
  }

  /// Opens a framed section; returns a handle for EndSection.
  size_t BeginSection(uint32_t tag, uint8_t version);
  /// Closes the section opened by the matching BeginSection, backpatching
  /// its byte length. Sections nest like parentheses.
  void EndSection(size_t handle);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  /// The bytes written so far; valid until the next write.
  std::string_view bytes() const { return {buf_.get(), size_}; }

 private:
  void AppendRaw(const void* p, size_t n) {
    if (capacity_ - size_ < n) Grow(n);
    std::memcpy(buf_.get() + size_, p, n);
    size_ += n;
  }
  // Growth (doubling) is out of line, so the inlined appends compile to a
  // bounds check and fixed-size copies.
  void Grow(size_t n);
  void Reallocate(size_t capacity);

  std::unique_ptr<char[]> buf_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// The entries of a hash map sorted by key, as pointers into the map: the
/// serializers walk a map in key order, for deterministic bytes, without
/// looking each key up again. Valid until the map is next modified.
template <typename Map>
MARITIME_OUTPUT_PATH std::vector<const typename Map::value_type*>
SortedEntries(const Map& map) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

/// Bounds-checked little-endian decoder. Every read returns false (and
/// latches the failure) when the buffer is exhausted, so decoding corrupt or
/// truncated input degrades to a clean error instead of reading out of
/// bounds. Callers translate a failed reader into Status::Corruption.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : data_(bytes) {}

  /// Reads `fields` back to back behind one bounds check, the mirror of
  /// Writer::Put: a record written by one Put is read by one Get of the
  /// same field types. On a short buffer nothing is stored, the failure
  /// latches and false is returned. The same fixed-width types only, so a
  /// bool is read as its uint8_t and a count as uint64_t (validate it with
  /// Fits before sizing anything by it).
  template <typename... Fields>
  bool Get(Fields*... fields) {
    static_assert(sizeof...(Fields) > 0);
    static_assert((detail::kWireField<Fields> && ...),
                  "Reader::Get takes uint8_t, uint32_t, uint64_t, int32_t, "
                  "int64_t and double fields only");
    constexpr size_t n = (sizeof(Fields) + ...);
    if (failed_ || remaining() < n) return Fail();
    const char* in = data_.data() + pos_;
    ((std::memcpy(fields, in, sizeof(Fields)), in += sizeof(Fields)), ...);
    pos_ += n;
    return true;
  }

  bool U8(uint8_t* v) { return Get(v); }
  /// A flag byte: 0 or 1, as Writer::Bool writes it. Any other byte fails
  /// (latched), so no two inputs restore the same flag.
  bool Bool(bool* v) {
    uint8_t b = 0;
    return U8(&b) && Flag(b, v);
  }
  /// The check of Bool for a flag byte already read as a field of a record.
  bool Flag(uint8_t b, bool* v) {
    if (b > 1) return Fail();
    *v = b != 0;
    return true;
  }
  bool U32(uint32_t* v) { return Get(v); }
  bool U64(uint64_t* v) { return Get(v); }
  bool I32(int32_t* v) { return Get(v); }
  bool I64(int64_t* v) { return Get(v); }
  bool F64(double* v) { return Get(v); }

  bool Str(std::string* s) {
    uint64_t n = 0;
    if (!Count(&n, 1)) return false;
    s->assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  /// Reads an element count and validates it against the bytes remaining
  /// (each element needs at least `min_element_size` bytes), so a hostile
  /// count cannot drive a multi-gigabyte allocation before the truncation
  /// is noticed.
  bool Count(uint64_t* n, size_t min_element_size) {
    return U64(n) && Fits(*n, min_element_size);
  }
  /// The check of Count for a count already read as a field of a record:
  /// `n` elements of at least `min_element_size` bytes must fit in what is
  /// left, or the failure latches.
  bool Fits(uint64_t n, size_t min_element_size) {
    if (min_element_size == 0) min_element_size = 1;
    if (failed_ || n > remaining() / min_element_size) return Fail();
    return true;
  }

  /// Advances past `n` bytes; false (latched) when fewer remain. A copy of
  /// the reader skipped ahead is how a loader reads a later count early.
  bool Skip(uint64_t n) {
    if (failed_ || n > remaining()) return Fail();
    pos_ += n;
    return true;
  }

  /// Opens a framed section written by Writer::BeginSection: checks the tag
  /// (Corruption) and that the stored version is `version` (see
  /// ReadVersion), and returns the section's end offset for EndSection.
  Status BeginSection(uint32_t expected_tag, uint8_t version,
                      std::string_view what, size_t* end_offset);
  /// Verifies the section was consumed exactly to its recorded end.
  bool EndSection(size_t end_offset) {
    if (failed_ || pos_ != end_offset) return Fail();
    return true;
  }

  size_t offset() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return failed_; }
  bool AtEnd() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Standard error for a reader that failed while decoding `what`.
inline Status CorruptionIn(std::string_view what) {
  return Status::Corruption("snapshot: malformed or truncated " +
                            std::string(what));
}

/// Checks a stored format version against the range [oldest, newest] this
/// build reads. No build ever wrote version 0, so it is Corruption; any
/// other version outside the range is a format this build does not read,
/// older or newer, and is Unimplemented.
Status CheckVersion(uint32_t version, uint32_t oldest, uint32_t newest,
                    std::string_view what);

/// Reads the u8 format version a component's record leads with and checks
/// it with CheckVersion; `*version` receives it. A truncated read is
/// Corruption.
Status ReadVersion(Reader& r, uint8_t oldest, uint8_t newest,
                   std::string_view what, uint8_t* version);
/// The same for a record that has one format: oldest == newest.
inline Status ReadVersion(Reader& r, uint8_t version, std::string_view what) {
  uint8_t stored = 0;
  return ReadVersion(r, version, version, what, &stored);
}

}  // namespace maritime::snapshot

#endif  // MARITIME_SNAPSHOT_CODEC_H_
