#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "maritime/me_stream.h"
#include "maritime/pipeline.h"
#include "maritime/recognizer.h"
#include "mod/hermes.h"
#include "mod/store.h"
#include "mod/trips.h"
#include "rtec/engine.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/crc32_kernels.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"
#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"
#include "tracker/sharded_tracker.h"
#include "tracker/snapshot_io.h"

namespace maritime {
namespace {

using surveillance::PipelineConfig;
using surveillance::SpatialFactTable;
using surveillance::SurveillancePipeline;

// --- codec ------------------------------------------------------------------

TEST(SnapshotCodecTest, PrimitiveRoundTrip) {
  snapshot::Writer w;
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(INT64_MIN);
  w.F64(3.25);
  w.Str("hello");
  w.Str("");

  snapshot::Reader r(w.bytes());
  uint8_t u8 = 0;
  bool b1 = false, b2 = true;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string s1, s2;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.Bool(&b1));
  EXPECT_TRUE(r.Bool(&b2));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I32(&i32));
  EXPECT_TRUE(r.I64(&i64));
  EXPECT_TRUE(r.F64(&f64));
  EXPECT_TRUE(r.Str(&s1));
  EXPECT_TRUE(r.Str(&s2));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, INT64_MIN);
  EXPECT_EQ(f64, 3.25);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
}

TEST(SnapshotCodecTest, TruncationLatchesFailure) {
  snapshot::Writer w;
  w.U32(7);
  snapshot::Reader r(std::string_view(w.bytes()).substr(0, 2));
  uint32_t v = 0;
  EXPECT_FALSE(r.U32(&v));
  EXPECT_TRUE(r.failed());
  uint8_t b = 0;
  EXPECT_FALSE(r.U8(&b)) << "failure latched: later reads keep failing";
}

TEST(SnapshotCodecTest, HostileCountRejectedBeforeAllocation) {
  snapshot::Writer w;
  w.U64(UINT64_MAX);  // claims ~2^64 elements with no bytes behind it
  snapshot::Reader r(w.bytes());
  uint64_t n = 0;
  EXPECT_FALSE(r.Count(&n, 8));
  EXPECT_TRUE(r.failed());
}

TEST(SnapshotCodecTest, SectionFraming) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 2);  // "TST1"
  w.U32(99);
  w.EndSection(s);

  snapshot::Reader r(w.bytes());
  size_t end = 0;
  ASSERT_TRUE(r.BeginSection(0x31545354u, 2, "test", &end).ok());
  uint32_t v = 0;
  EXPECT_TRUE(r.U32(&v));
  EXPECT_EQ(v, 99u);
  EXPECT_TRUE(r.EndSection(end));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodecTest, SectionWrongTagFails) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 1);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  size_t end = 0;
  EXPECT_EQ(r.BeginSection(0x32545354u, 1, "test", &end).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(r.failed());
}

TEST(SnapshotCodecTest, SectionFutureVersionRejected) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 3);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  size_t end = 0;
  EXPECT_EQ(r.BeginSection(0x31545354u, 2, "test", &end).code(),
            StatusCode::kUnimplemented);
  EXPECT_TRUE(r.failed());
}

TEST(SnapshotCodecTest, SectionUnderconsumptionDetected) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 1);
  w.U32(1);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  size_t end = 0;
  ASSERT_TRUE(r.BeginSection(0x31545354u, 1, "test", &end).ok());
  EXPECT_FALSE(r.EndSection(end)) << "reader left bytes unconsumed";
}

// A flag byte is the 0 or 1 Writer::Bool writes; any other byte restores
// nothing, so no two inputs restore the same flag.
TEST(SnapshotCodecTest, FlagBytesOtherThanZeroOrOneFail) {
  for (const uint8_t byte : {uint8_t{2}, uint8_t{0x80}, uint8_t{0xFF}}) {
    const std::string bytes(1, static_cast<char>(byte));
    snapshot::Reader r(bytes);
    bool flag = false;
    EXPECT_FALSE(r.Bool(&flag)) << int{byte};
    EXPECT_TRUE(r.failed());
    snapshot::Reader field(bytes);
    EXPECT_FALSE(field.Flag(byte, &flag)) << int{byte};
    EXPECT_TRUE(field.failed());
  }
}

// Capacity never changes the bytes: a record written by one Put equals the
// same fields written one named call at a time, and both equal a byte image
// built without the Writer, however the Writer was presized.

void PutOne(snapshot::Writer& w, uint8_t v) { w.U8(v); }
void PutOne(snapshot::Writer& w, uint32_t v) { w.U32(v); }
void PutOne(snapshot::Writer& w, uint64_t v) { w.U64(v); }
void PutOne(snapshot::Writer& w, int32_t v) { w.I32(v); }
void PutOne(snapshot::Writer& w, int64_t v) { w.I64(v); }
void PutOne(snapshot::Writer& w, double v) { w.F64(v); }

template <typename T>
void AppendImage(std::string* image, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  image->append(bytes, sizeof(T));
}

struct RecordSinks {
  snapshot::Writer* put;     ///< One Put per record.
  snapshot::Writer* single;  ///< One named call per field.
  std::string* image;        ///< Independent little-endian image.
};

template <typename... Fields>
void WriteRecord(const RecordSinks& out, Fields... fields) {
  out.put->Put(fields...);
  (PutOne(*out.single, fields), ...);
  (AppendImage(out.image, fields), ...);
}

// 300 records of seeded random shapes and values, strings included.
void WriteRandomRecords(uint64_t seed, const RecordSinks& out) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> real(-1e9, 1e9);
  const auto u32 = [&rng] { return static_cast<uint32_t>(rng()); };
  const auto i32 = [&rng] { return static_cast<int32_t>(rng()); };
  const auto i64 = [&rng] { return static_cast<int64_t>(rng()); };
  for (int i = 0; i < 300; ++i) {
    switch (rng() % 6) {
      case 0:
        WriteRecord(out, static_cast<uint8_t>(rng()));
        break;
      case 1:
        WriteRecord(out, u32(), real(rng));
        break;
      case 2:
        WriteRecord(out, i64(), i32(), static_cast<uint8_t>(rng() & 1),
                    real(rng));
        break;
      case 3:
        WriteRecord(out, uint64_t{rng()}, uint64_t{rng()}, i32());
        break;
      case 4:  // A critical point's shape.
        WriteRecord(out, u32(), real(rng), real(rng), i64(), u32(),
                    real(rng), real(rng), i64());
        break;
      default: {
        const std::string s(rng() % 40, static_cast<char>('a' + rng() % 26));
        out.put->Str(s);
        out.single->Str(s);
        AppendImage(out.image, uint64_t{s.size()});
        out.image->append(s);
        break;
      }
    }
  }
}

TEST(SnapshotCodecTest, PutWritesTheFieldBytesAtAnyCapacity) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string image;
    {
      snapshot::Writer put, single;
      WriteRandomRecords(seed, {&put, &single, &image});
    }
    const size_t exact = image.size();
    for (const size_t reserve : {size_t{0}, exact, exact / 3, 4 * exact}) {
      SCOPED_TRACE("reserved " + std::to_string(reserve) + " of " +
                   std::to_string(exact) + " bytes");
      snapshot::Writer put, single;
      put.Reserve(reserve);
      single.Reserve(reserve);
      std::string again;
      WriteRandomRecords(seed, {&put, &single, &again});
      ASSERT_EQ(again, image);
      EXPECT_EQ(put.bytes(), image);
      EXPECT_EQ(single.bytes(), image);
      if (reserve >= exact) {
        EXPECT_EQ(put.capacity(), reserve) << "a presized writer regrew";
      }
    }
  }
}

// --- checksum ---------------------------------------------------------------

// Bit-at-a-time CRC-32 (IEEE 802.3, reflected 0xEDB88320), written without
// tables so it shares no code with the sliced kernel under test.
uint32_t BitwiseCrc32(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string PseudoRandomBytes(size_t n, uint64_t seed) {
  std::string out(n, '\0');
  uint64_t x = seed;
  for (char& ch : out) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    ch = static_cast<char>(x >> 56);
  }
  return out;
}

using CrcFn = uint32_t (*)(std::string_view);

void ExpectKnownAnswers(CrcFn crc) {
  EXPECT_EQ(crc(""), 0x00000000u);
  EXPECT_EQ(crc("123456789"), 0xCBF43926u);
}

void ExpectMatchesAtEveryLengthAndOffset(CrcFn crc) {
  const std::string buf = PseudoRandomBytes(316, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view v = std::string_view(buf).substr(offset, len);
      ASSERT_EQ(crc(v), BitwiseCrc32(v))
          << "offset " << offset << " length " << len;
    }
  }
}

void ExpectMatchesOnOneMebibyte(CrcFn crc) {
  const std::string buf = PseudoRandomBytes(size_t{1} << 20, 2);
  EXPECT_EQ(crc(buf), BitwiseCrc32(buf));
}

TEST(SnapshotCrcTest, KnownAnswers) { ExpectKnownAnswers(&snapshot::Crc32); }

TEST(SnapshotCrcTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  ExpectMatchesAtEveryLengthAndOffset(&snapshot::Crc32);
}

TEST(SnapshotCrcTest, MatchesBitwiseReferenceOnOneMebibyte) {
  ExpectMatchesOnOneMebibyte(&snapshot::Crc32);
}

// Each kernel behind Crc32 is checked directly, so the one this CPU does not
// select is tested too. The parameter holds the kernel's name and no pointer:
// gtest_discover_tests records its bytes in each test's name, and a pointer
// would make those names change with the load address on every build.
struct CrcKernel {
  char name[16];

  CrcFn fn() const {
    const std::string_view n(name);
    if (n == "sliced") return &snapshot::internal::Crc32Sliced;
#if MARITIME_CRC32_CLMUL
    if (n == "clmul") return &snapshot::internal::Crc32Clmul;
#endif
    return nullptr;
  }
};

class SnapshotCrcKernelTest : public ::testing::TestWithParam<CrcKernel> {
 protected:
  void SetUp() override {
    if (std::string_view(GetParam().name) == "clmul" &&
        !snapshot::internal::ClmulSupported()) {
      GTEST_SKIP() << "this CPU does not execute PCLMULQDQ";
    }
  }
};

TEST_P(SnapshotCrcKernelTest, KnownAnswers) {
  ExpectKnownAnswers(GetParam().fn());
}

TEST_P(SnapshotCrcKernelTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  ExpectMatchesAtEveryLengthAndOffset(GetParam().fn());
}

TEST_P(SnapshotCrcKernelTest, MatchesBitwiseReferenceAroundTheFoldEdge) {
  // The carry-less kernel folds only inputs of at least 64 bytes.
  for (size_t len = 48; len <= 96; ++len) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      const std::string buf = PseudoRandomBytes(len, 100 + seed);
      ASSERT_EQ(GetParam().fn()(buf), BitwiseCrc32(buf))
          << "length " << len << " seed " << seed;
    }
  }
}

TEST_P(SnapshotCrcKernelTest, MatchesBitwiseReferenceOnOneMebibyte) {
  ExpectMatchesOnOneMebibyte(GetParam().fn());
}

const CrcKernel kCrcKernels[] = {
    {"sliced"},
#if MARITIME_CRC32_CLMUL
    {"clmul"},
#endif
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, SnapshotCrcKernelTest, ::testing::ValuesIn(kCrcKernels),
    [](const ::testing::TestParamInfo<CrcKernel>& info) {
      return std::string(info.param.name);
    });

// --- file container ---------------------------------------------------------

TEST(SnapshotFileTest, RoundTrip) {
  const std::string payload = "some recognizer state bytes";
  const std::string file = snapshot::EncodeSnapshotFile(payload);
  const Result<std::string_view> decoded = snapshot::DecodeSnapshotFile(file);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), payload);
}

TEST(SnapshotFileTest, EveryTruncationFailsCleanly) {
  const std::string file = snapshot::EncodeSnapshotFile("payload payload");
  for (size_t len = 0; len < file.size(); ++len) {
    const Result<std::string_view> decoded =
        snapshot::DecodeSnapshotFile(std::string_view(file).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << len << " bytes";
  }
}

TEST(SnapshotFileTest, EveryFlippedByteIsDetected) {
  const std::string file = snapshot::EncodeSnapshotFile("payload payload");
  for (size_t i = 0; i < file.size(); ++i) {
    std::string corrupt = file;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    const Result<std::string_view> decoded =
        snapshot::DecodeSnapshotFile(corrupt);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << i;
  }
}

TEST(SnapshotFileTest, FutureFileVersionIsUnimplemented) {
  std::string file = snapshot::EncodeSnapshotFile("payload");
  file[4] = static_cast<char>(snapshot::kFileVersion + 1);  // version field
  const Result<std::string_view> decoded = snapshot::DecodeSnapshotFile(file);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

TEST(SnapshotFileTest, TrailingBytesAreCorruption) {
  std::string file = snapshot::EncodeSnapshotFile("payload");
  file += "junk";
  const Result<std::string_view> decoded = snapshot::DecodeSnapshotFile(file);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// A container written by the std::string-backed Writer and the bytewise
// CRC-32 kernel this format shipped with: every later build must reproduce
// it byte for byte and accept it.
TEST(SnapshotFileTest, GoldenContainerBytes) {
  snapshot::Writer w;
  const size_t section = w.BeginSection(0x444C4F47u, 3);  // "GOLD"
  w.U8(0xAB);
  w.Bool(true);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(INT64_MIN);
  w.F64(3.25);
  w.Str(std::string_view("a tail\x00\x7f\x80\xff", 10));
  w.EndSection(section);
  const std::string_view golden(
      "\x4d\x53\x4e\x50\x01\x00\x00\x00\x41\x00\x00\x00\x00\x00\x00\x00"
      "\x5a\xa1\x86\x65\x47\x4f\x4c\x44\x03\x34\x00\x00\x00\x00\x00\x00"
      "\x00\xab\x01\xef\xbe\xad\xde\xef\xcd\xab\x89\x67\x45\x23\x01\xd6"
      "\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00"
      "\x00\x0a\x40\x0a\x00\x00\x00\x00\x00\x00\x00\x61\x20\x74\x61\x69"
      "\x6c\x00\x7f\x80\xff",
      85);
  EXPECT_EQ(snapshot::EncodeSnapshotFile(w.bytes()), golden);
  const Result<std::string_view> decoded = snapshot::DecodeSnapshotFile(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), w.bytes());
}

TEST(SnapshotFileTest, DiskFileIsTheEncodedImage) {
  const std::string payload = PseudoRandomBytes(1000, 3);
  const std::string path = ::testing::TempDir() + "/container.msnp";
  ASSERT_TRUE(snapshot::WriteSnapshotFile(path, payload).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, snapshot::EncodeSnapshotFile(payload));
  const Result<std::string> read = snapshot::ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, ReadRejectsShortAndMissingFiles) {
  const std::string image = snapshot::EncodeSnapshotFile("payload payload");
  const std::string path = ::testing::TempDir() + "/short.msnp";
  for (const size_t len : {size_t{0}, size_t{7}, snapshot::kFileHeaderSize,
                           image.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(len));
    }
    const Result<std::string> read = snapshot::ReadSnapshotFile(path);
    ASSERT_FALSE(read.ok()) << "length " << len;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << "length " << len;
  }
  std::remove(path.c_str());
  EXPECT_EQ(snapshot::ReadSnapshotFile(path).status().code(),
            StatusCode::kIoError);
  EXPECT_FALSE(snapshot::ReadSnapshotFile(::testing::TempDir()).ok());
}

// --- engine -----------------------------------------------------------------

class SnapshotEngineFixture {
 public:
  explicit SnapshotEngineFixture(stream::WindowSpec window,
                                 bool incremental = false) {
    rtec::EngineOptions opts;
    opts.incremental = incremental;
    engine = std::make_unique<rtec::Engine>(window, opts);
    on = engine->DeclareEvent("on");
    off = engine->DeclareEvent("off");
    active = engine->DeclareFluent("active");
    rtec::SimpleFluentSpec spec;
    spec.fluent = active;
    spec.output = true;
    const rtec::EventId e_on = on, e_off = off;
    spec.domain = [e_on, e_off](const rtec::EvalContext& ctx) {
      std::vector<rtec::Term> keys;
      for (const auto& e : ctx.Events(e_on)) keys.push_back(e.subject);
      for (const auto& e : ctx.Events(e_off)) keys.push_back(e.subject);
      return keys;
    };
    spec.rules = [e_on, e_off](const rtec::EvalContext& ctx, rtec::Term key,
                               rtec::PointVec* initiated,
                               rtec::PointVec* terminated) {
      for (const auto& e : ctx.Events(e_on)) {
        if (e.subject == key) initiated->push_back({rtec::kTrue, e.t});
      }
      for (const auto& e : ctx.Events(e_off)) {
        if (e.subject == key) terminated->push_back({rtec::kTrue, e.t});
      }
    };
    rtec::DependencySpec deps;
    deps.events = {on, off};
    spec.deps = deps;
    engine->AddSimpleFluent(std::move(spec));
  }

  std::unique_ptr<rtec::Engine> engine;
  rtec::EventId on = -1;
  rtec::EventId off = -1;
  rtec::FluentId active = -1;
};

const rtec::Term kV1{0, 1};
const rtec::Term kV2{0, 2};

TEST(EngineSnapshotTest, RestoredEngineContinuesBitIdentically) {
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "naive");
    const stream::WindowSpec window{120, 60};
    SnapshotEngineFixture a(window, incremental);
    a.engine->AssertEvent(a.on, kV1, 30);
    a.engine->AssertEvent(a.on, kV2, 40);
    a.engine->Recognize(60);
    a.engine->AssertEvent(a.off, kV1, 70);

    snapshot::Writer w;
    a.engine->SaveTo(w);

    SnapshotEngineFixture b(window, incremental);
    snapshot::Reader r(w.bytes());
    const Status s = b.engine->RestoreFrom(r);
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(r.AtEnd());

    // Feed both engines the same continuation, compare every result.
    a.engine->AssertEvent(a.off, kV2, 100);
    b.engine->AssertEvent(b.off, kV2, 100);
    for (Timestamp q = 120; q <= 300; q += 60) {
      const rtec::RecognitionResult ra = a.engine->Recognize(q);
      const rtec::RecognitionResult rb = b.engine->Recognize(q);
      EXPECT_TRUE(ra == rb) << "diverged at q=" << q;
    }
  }
}

TEST(EngineSnapshotTest, SavedBytesAreDeterministic) {
  const stream::WindowSpec window{120, 60};
  SnapshotEngineFixture a(window, true);
  a.engine->AssertEvent(a.on, kV1, 30);
  a.engine->AssertEvent(a.on, kV2, 40);
  a.engine->Recognize(60);
  snapshot::Writer w1, w2;
  a.engine->SaveTo(w1);
  a.engine->SaveTo(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(EngineSnapshotTest, WindowMismatchIsInvalidArgument) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60});
  snapshot::Writer w;
  a.engine->SaveTo(w);
  SnapshotEngineFixture b(stream::WindowSpec{240, 60});
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.engine->RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

TEST(EngineSnapshotTest, ModeMismatchIsInvalidArgument) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60}, false);
  snapshot::Writer w;
  a.engine->SaveTo(w);
  SnapshotEngineFixture b(stream::WindowSpec{120, 60}, true);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.engine->RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

TEST(EngineSnapshotTest, SchemaMismatchIsInvalidArgument) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60});
  snapshot::Writer w;
  a.engine->SaveTo(w);
  rtec::Engine other(stream::WindowSpec{120, 60});
  other.DeclareEvent("different");
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(other.RestoreFrom(r).code(), StatusCode::kInvalidArgument);

  // Kind tag 1 belonged to the retired statically-determined fluent kind
  // and stays reserved: a definition table naming it is a schema mismatch,
  // not corrupt bytes. Hand-build the section's prefix up to the one
  // definition's kind tag and flip that tag in the saved section.
  snapshot::Writer prefix;
  prefix.U8(3);  // engine section version
  prefix.I64(120);
  prefix.I64(60);
  prefix.Bool(false);  // naive
  prefix.U64(2);
  prefix.Str("on");
  prefix.Str("off");
  prefix.U64(1);
  prefix.Str("active");
  prefix.U64(1);  // definitions
  std::string bytes(w.bytes());
  const size_t kind_at = prefix.bytes().size();
  ASSERT_EQ(bytes.substr(0, kind_at), prefix.bytes());
  ASSERT_EQ(bytes[kind_at], 0);  // the simple-fluent kind
  bytes[kind_at] = 1;
  SnapshotEngineFixture b(stream::WindowSpec{120, 60});
  snapshot::Reader kind_r(bytes);
  EXPECT_EQ(b.engine->RestoreFrom(kind_r).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineSnapshotTest, TruncatedStateIsCorruption) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60});
  a.engine->AssertEvent(a.on, kV1, 30);
  a.engine->Recognize(60);
  snapshot::Writer w;
  a.engine->SaveTo(w);
  // Any truncation inside the state region must fail with a Status, not
  // crash. (Truncations inside the schema fingerprint may also surface as
  // InvalidArgument when a shortened string still compares unequal.)
  for (size_t len = 0; len < w.bytes().size(); len += 7) {
    SnapshotEngineFixture b(stream::WindowSpec{120, 60});
    snapshot::Reader r(std::string_view(w.bytes()).substr(0, len));
    EXPECT_FALSE(b.engine->RestoreFrom(r).ok()) << "truncated to " << len;
  }
}

// Bytes SaveTo never writes are rejected, not canonicalized: each patch of a
// real engine snapshot below restores to Corruption, and the engine is left
// as freshly declared (it saves what a fresh engine saves).

// The bytes of `fields`, as one Writer::Put writes them.
template <typename... Fields>
std::string RecordBytes(Fields... fields) {
  snapshot::Writer w;
  w.Put(fields...);
  return std::string(w.bytes());
}

// The saved state of a fixture engine that saw kV1 on at 30 and kV2 on at
// 40, recognized at 60: one open `active` interval per key.
std::string TwoKeySnapshot(bool incremental) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60}, incremental);
  a.engine->AssertEvent(a.on, kV1, 30);
  a.engine->AssertEvent(a.on, kV2, 40);
  a.engine->Recognize(60);
  snapshot::Writer w;
  a.engine->SaveTo(w);
  return std::string(w.bytes());
}

void ExpectRejectedWithoutPartialState(const std::string& bytes,
                                       bool incremental) {
  const stream::WindowSpec window{120, 60};
  {
    // The unpatched snapshot restores; the patch is what is rejected.
    SnapshotEngineFixture ok(window, incremental);
    const std::string unpatched = TwoKeySnapshot(incremental);
    snapshot::Reader r(unpatched);
    ASSERT_TRUE(ok.engine->RestoreFrom(r).ok());
  }
  SnapshotEngineFixture b(window, incremental);
  snapshot::Reader r(bytes);
  EXPECT_EQ(b.engine->RestoreFrom(r).code(), StatusCode::kCorruption);
  SnapshotEngineFixture fresh(window, incremental);
  snapshot::Writer after, expected;
  b.engine->SaveTo(after);
  fresh.engine->SaveTo(expected);
  EXPECT_EQ(after.bytes(), expected.bytes())
      << "a rejected restore left partial state";
}

TEST(EngineSnapshotTest, RepeatedTimelineValueIsCorruption) {
  std::string bytes = TwoKeySnapshot(false);
  // kV1's timeline opens with its intervals section: one row, value kTrue,
  // holding (30, 60]. Repeat that row.
  const std::string row = RecordBytes(rtec::kTrue, uint64_t{1}, Timestamp{30},
                                      Timestamp{60});
  const std::string section =
      RecordBytes(kV1.kind, kV1.id, uint64_t{1}) + row;
  const size_t at = bytes.find(section);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(section, at + 1), std::string::npos);
  const size_t count_at = at + 2 * sizeof(int32_t);
  bytes.replace(count_at, sizeof(uint64_t), RecordBytes(uint64_t{2}));
  bytes.insert(at + section.size(), row);
  ExpectRejectedWithoutPartialState(bytes, false);
}

TEST(EngineSnapshotTest, DescendingTimelineKeysAreCorruption) {
  std::string bytes = TwoKeySnapshot(false);
  // The two timeline records have the same shape; swap them.
  const auto record_at = [&bytes](rtec::Term key, Timestamp since) {
    return bytes.find(RecordBytes(key.kind, key.id, uint64_t{1}, rtec::kTrue,
                                  uint64_t{1}, since, Timestamp{60}));
  };
  const size_t first = record_at(kV1, 30);
  const size_t second = record_at(kV2, 40);
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  const size_t len = second - first;
  ASSERT_GE(bytes.size(), second + len);
  const std::string a = bytes.substr(first, len);
  const std::string b = bytes.substr(second, len);
  bytes.replace(first, len, b);
  bytes.replace(second, len, a);
  ExpectRejectedWithoutPartialState(bytes, false);
}

TEST(EngineSnapshotTest, OutOfOrderEvidenceKeysAreCorruption) {
  std::string bytes = TwoKeySnapshot(true);
  // Each key's cached evidence: one initiation, no termination, no carried
  // value. Swap the two (same-length) entries.
  const auto entry = [](rtec::Term key, Timestamp t) {
    return RecordBytes(key.kind, key.id, uint64_t{1}, rtec::kTrue, t,
                       uint64_t{0}, uint8_t{0}, rtec::Value{0});
  };
  const std::string e1 = entry(kV1, 30), e2 = entry(kV2, 40);
  const size_t at = bytes.find(e1 + e2);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, e1.size() + e2.size(), e2 + e1);
  ExpectRejectedWithoutPartialState(bytes, true);
}

// The rest of the engine record is written canonically too: each dirty map
// flushed (keys ascending, each once), each boundary vector sorted by key,
// and each optional value as a 0/1 flag followed by 0 when the flag is
// clear. Both keys hold `active` at the next window's start (60), and the
// off events lie beyond the last query time, so both keys are still dirty
// at the save.
TEST(EngineSnapshotTest, NonCanonicalKeyOrderAndOptionalsAreCorruption) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60}, true);
  a.engine->AssertEvent(a.on, kV1, 30);
  a.engine->AssertEvent(a.on, kV2, 40);
  a.engine->Recognize(60);
  a.engine->AssertEvent(a.off, kV1, 130);
  a.engine->AssertEvent(a.off, kV2, 140);
  a.engine->Recognize(120);
  snapshot::Writer w;
  a.engine->SaveTo(w);
  const std::string saved(w.bytes());
  const auto restore = [](const std::string& bytes) {
    SnapshotEngineFixture b(stream::WindowSpec{120, 60}, true);
    snapshot::Reader r(bytes);
    return b.engine->RestoreFrom(r).code();
  };
  ASSERT_EQ(restore(saved), StatusCode::kOk);
  const auto replaced = [&saved](const std::string& from,
                                 const std::string& to) {
    std::string bytes = saved;
    const size_t at = bytes.find(from);
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos) bytes.replace(at, from.size(), to);
    return bytes;
  };
  // The off events' dirty marks, one per key, swapped.
  const std::string mark1 =
      RecordBytes(kV1.kind, kV1.id, Timestamp{130}, Timestamp{130});
  const std::string mark2 =
      RecordBytes(kV2.kind, kV2.id, Timestamp{140}, Timestamp{140});
  EXPECT_EQ(restore(replaced(mark1 + mark2, mark2 + mark1)),
            StatusCode::kCorruption);
  // Both keys hold `active` at the boundary of the recognition, swapped.
  const std::string held1 = RecordBytes(kV1.kind, kV1.id, rtec::kTrue);
  const std::string held2 = RecordBytes(kV2.kind, kV2.id, rtec::kTrue);
  EXPECT_EQ(restore(replaced(held1 + held2, held2 + held1)),
            StatusCode::kCorruption);
  // kV1's cached evidence carries no value: flag 0, value 0.
  const std::string evidence = RecordBytes(
      kV1.kind, kV1.id, uint64_t{1}, rtec::kTrue, Timestamp{30}, uint64_t{0});
  for (const auto& [flag, value] :
       {std::pair{uint8_t{0}, rtec::Value{5}},
        std::pair{uint8_t{2}, rtec::Value{0}}}) {
    EXPECT_EQ(restore(replaced(
                  evidence + RecordBytes(uint8_t{0}, rtec::Value{0}),
                  evidence + RecordBytes(flag, value))),
              StatusCode::kCorruption)
        << int{flag} << " " << value;
  }
}

// --- tracker ----------------------------------------------------------------

std::vector<stream::PositionTuple> SyntheticTuples(Timestamp from,
                                                   Timestamp to) {
  std::vector<stream::PositionTuple> tuples;
  for (Timestamp t = from; t < to; t += 30) {
    for (stream::Mmsi mmsi = 1; mmsi <= 5; ++mmsi) {
      stream::PositionTuple p;
      p.mmsi = mmsi;
      const double progress = static_cast<double>(t) / 3600.0;
      p.pos = {24.0 + 0.05 * progress * static_cast<double>(mmsi),
               37.0 + 0.02 * progress};
      p.tau = t;
      tuples.push_back(p);
    }
  }
  return tuples;
}

TEST(TrackerSnapshotTest, RestoredTrackerContinuesBitIdentically) {
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  a.ProcessSlide(SyntheticTuples(0, 600), 600);
  a.ProcessSlide(SyntheticTuples(600, 1200), 1200);

  snapshot::Writer w;
  a.SaveTo(w);

  tracker::ShardedMobilityTracker b(params, 2);
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());

  const auto batch = SyntheticTuples(1200, 1800);
  const auto ca = a.ProcessSlide(batch, 1800);
  const auto cb = b.ProcessSlide(batch, 1800);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].mmsi, cb[i].mmsi);
    EXPECT_EQ(ca[i].tau, cb[i].tau);
    EXPECT_EQ(ca[i].flags, cb[i].flags);
    EXPECT_EQ(ca[i].pos.lon, cb[i].pos.lon);
    EXPECT_EQ(ca[i].pos.lat, cb[i].pos.lat);
    EXPECT_EQ(ca[i].speed_knots, cb[i].speed_knots);
    EXPECT_EQ(ca[i].heading_deg, cb[i].heading_deg);
    EXPECT_EQ(ca[i].duration, cb[i].duration);
  }
  std::vector<tracker::CriticalPoint> ta, tb;
  a.Finish(&ta);
  b.Finish(&tb);
  EXPECT_EQ(ta.size(), tb.size());
}

// A vessel whose stop or slow-motion episode is open but holds no samples:
// SaveTo never writes one, and closing the episode (at the next report or
// at Finish) would take the centroid or median of nothing.
TEST(TrackerSnapshotTest, OpenEpisodeWithoutSamplesIsCorruption) {
  const auto section = [](bool stop_active, bool slow_active) {
    snapshot::Writer w;
    w.Put(uint8_t{2}, uint64_t{1}, uint32_t{100});  // format, one vessel
    w.Put(uint8_t{1}, uint32_t{100}, 24.0, 37.0, Timestamp{0},  // last
          uint8_t{0}, 0.0, 0.0, uint64_t{0});  // v_prev, no velocities
    w.U64(0);                                  // no heading changes
    w.Put(uint64_t{0}, Timestamp{0}, 0.0, 0.0, uint8_t{stop_active},
          Timestamp{0}, uint64_t{0});  // stop aggregates, no slow samples
    w.Put(uint8_t{slow_active}, Timestamp{0}, 0.0, 0.0, uint8_t{0},
          Timestamp{0}, int32_t{0}, uint64_t{1}, 0.0);
    for (int i = 0; i < 6; ++i) w.U64(0);  // counters
    return std::string(w.bytes());
  };
  for (const auto& [stop, slow, code] :
       {std::tuple{false, false, StatusCode::kOk},
        std::tuple{true, false, StatusCode::kCorruption},
        std::tuple{false, true, StatusCode::kCorruption}}) {
    const std::string bytes = section(stop, slow);
    tracker::MobilityTracker t{tracker::TrackerParams()};
    snapshot::Reader r(bytes);
    EXPECT_EQ(t.RestoreFrom(r).code(), code) << stop << slow;
    std::vector<tracker::CriticalPoint> out;
    t.Finish(&out);
  }
}

// A tracker section of one vessel, hand-built in format v2: its five flag
// bytes, its three ring counts (each ring holding that many entries) and an
// open stop candidate of one sample.
struct VesselBytes {
  uint8_t has_last = 1, has_velocity = 1, stop_active = 0, slow_active = 0,
          gap_open = 0;
  uint64_t velocities = 0, heading_diffs = 0, slow_samples = 0;
};

std::string OneVesselSection(const VesselBytes& v) {
  snapshot::Writer w;
  w.Put(uint8_t{2}, uint64_t{1}, uint32_t{100});  // format, one vessel
  w.Put(v.has_last, uint32_t{100}, 24.0, 37.0, Timestamp{0}, v.has_velocity,
        5.0, 90.0, v.velocities);
  for (uint64_t i = 0; i < v.velocities; ++i) w.Put(1.0, 2.0);
  w.U64(v.heading_diffs);
  for (uint64_t i = 0; i < v.heading_diffs; ++i) w.F64(3.0);
  w.Put(uint64_t{1}, Timestamp{0}, 24.0, 37.0, v.stop_active, Timestamp{0},
        v.slow_samples);
  for (uint64_t i = 0; i < v.slow_samples; ++i) w.Put(24.0, 37.0, Timestamp{0});
  w.Put(v.slow_active, Timestamp{0}, 24.0, 37.0, v.gap_open, Timestamp{0},
        int32_t{0}, uint64_t{1}, 0.0);
  for (int i = 0; i < 6; ++i) w.U64(0);  // counters
  return std::string(w.bytes());
}

StatusCode RestoreCode(const std::string& bytes) {
  tracker::MobilityTracker t{tracker::TrackerParams()};
  snapshot::Reader r(bytes);
  const Status s = t.RestoreFrom(r);
  return s.ok() && !r.AtEnd() ? StatusCode::kInternal : s.code();
}

// A flag is the byte 0 or 1 that SaveTo writes; any other byte is
// Corruption, not a second spelling of true.
TEST(TrackerSnapshotTest, FlagByteOtherThanZeroOrOneIsCorruption) {
  VesselBytes v;
  v.slow_samples = 1;  // so an open slow-motion episode holds a sample
  ASSERT_EQ(RestoreCode(OneVesselSection(v)), StatusCode::kOk);
  for (uint8_t VesselBytes::*flag :
       {&VesselBytes::has_last, &VesselBytes::has_velocity,
        &VesselBytes::stop_active, &VesselBytes::slow_active,
        &VesselBytes::gap_open}) {
    for (const uint8_t byte : {uint8_t{0}, uint8_t{1}, uint8_t{2},
                               uint8_t{0xFF}}) {
      VesselBytes patched = v;
      patched.*flag = byte;
      EXPECT_EQ(RestoreCode(OneVesselSection(patched)),
                byte <= 1 ? StatusCode::kOk : StatusCode::kCorruption)
          << int{byte};
    }
  }
}

// A ring holds at most history_size (m) entries, and SaveTo writes no more;
// a longer list must not restore with its oldest entries pushed out unseen.
TEST(TrackerSnapshotTest, RingCountAboveHistorySizeIsCorruption) {
  const auto m = static_cast<uint64_t>(tracker::TrackerParams().history_size);
  for (uint64_t VesselBytes::*ring :
       {&VesselBytes::velocities, &VesselBytes::heading_diffs,
        &VesselBytes::slow_samples}) {
    VesselBytes v;
    v.*ring = m;
    EXPECT_EQ(RestoreCode(OneVesselSection(v)), StatusCode::kOk);
    v.*ring = m + 1;
    EXPECT_EQ(RestoreCode(OneVesselSection(v)), StatusCode::kCorruption);
  }
}

TEST(TrackerSnapshotTest, ShardCountMismatchIsInvalidArgument) {
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  snapshot::Writer w;
  a.SaveTo(w);
  tracker::ShardedMobilityTracker b(params, 3);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

// The record's trailing tuple and critical-point totals are the sums of its
// compressors' counters (both count the same positions and points each
// slide), in format v2 and in the fixture's v1, which adds busy seconds
// after the slide count. Totals that differ from those sums are not bytes
// SaveTo writes.
TEST(TrackerSnapshotTest, TotalsOtherThanTheCompressorSumsAreCorruption) {
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  a.ProcessSlide(SyntheticTuples(0, 600), 600);
  a.ProcessSlide(SyntheticTuples(600, 1200), 1200);
  snapshot::Writer w;
  a.SaveTo(w);
  const std::string v2(w.bytes());
  ASSERT_EQ(v2[0], 2);
  const tracker::CompressionStats sums = a.compression_stats();
  ASSERT_GT(sums.raw_positions, 0u);
  ASSERT_GT(sums.critical_points, 0u);
  // slides | tuples | critical points close the record.
  const size_t tail = v2.size() - 3 * sizeof(uint64_t);
  ASSERT_EQ(v2.substr(tail), RecordBytes(uint64_t{2}, sums.raw_positions,
                                         sums.critical_points));
  std::string v1 = v2;
  v1[0] = 1;
  v1.insert(tail + sizeof(uint64_t), RecordBytes(0.25));  // busy seconds

  const auto restore = [&params](const std::string& bytes) {
    tracker::ShardedMobilityTracker b(params, 2);
    snapshot::Reader r(bytes);
    const Status s = b.RestoreFrom(r);
    return s.ok() && !r.AtEnd() ? StatusCode::kInternal : s.code();
  };
  for (const std::string& saved : {v2, v1}) {
    SCOPED_TRACE(int{saved[0]});
    EXPECT_EQ(restore(saved), StatusCode::kOk);
    for (const size_t from_end : {2 * sizeof(uint64_t), sizeof(uint64_t)}) {
      std::string bytes = saved;
      bytes[bytes.size() - from_end] ^= 1;
      EXPECT_EQ(restore(bytes), StatusCode::kCorruption) << from_end;
    }
  }
  // The slide count is not derived: any value restores.
  std::string slides = v2;
  slides.replace(tail, sizeof(uint64_t), RecordBytes(uint64_t{7}));
  EXPECT_EQ(restore(slides), StatusCode::kOk);
}

// A restore that fails after reading a shard keeps none of it: a flipped
// trailing total (every shard read) and a cut inside the second shard (the
// first one read) both leave the tracker as a fresh one, down to its bytes.
TEST(TrackerSnapshotTest, FailedRestoreLeavesNoShardRestored) {
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  a.ProcessSlide(SyntheticTuples(0, 600), 600);
  a.ProcessSlide(SyntheticTuples(600, 1200), 1200);
  ASSERT_GT(a.shard(0).vessel_count(), 0u);
  ASSERT_GT(a.shard(1).vessel_count(), 0u);
  snapshot::Writer w;
  a.SaveTo(w);
  const std::string saved(w.bytes());

  // The record: format u8, shard count u32, then per shard its tracker
  // section and its compressor section (format u8, two u64 counters).
  snapshot::Writer first;
  a.shard(0).SaveTo(first);
  const size_t second_shard =
      1 + sizeof(uint32_t) + first.bytes().size() + 1 + 2 * sizeof(uint64_t);
  const std::string cut = saved.substr(0, second_shard + 8);
  std::string flipped = saved;
  flipped[flipped.size() - sizeof(uint64_t)] ^= 1;

  const std::string fresh = [&params] {
    tracker::ShardedMobilityTracker t(params, 2);
    snapshot::Writer fw;
    t.SaveTo(fw);
    return std::string(fw.bytes());
  }();
  for (const std::string& bytes : {cut, flipped}) {
    tracker::ShardedMobilityTracker b(params, 2);
    b.ProcessSlide(SyntheticTuples(0, 600), 600);
    snapshot::Reader r(bytes);
    EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kCorruption);
    EXPECT_EQ(b.vessel_count(), 0u);
    EXPECT_EQ(b.compression_stats().raw_positions, 0u);
    EXPECT_EQ(b.compression_stats().critical_points, 0u);
    snapshot::Writer again;
    b.SaveTo(again);
    EXPECT_EQ(std::string(again.bytes()), fresh);
  }
}

// --- spatial facts ---------------------------------------------------------

TEST(SpatialFactTableSnapshotTest, RoundTrip) {
  SpatialFactTable a;
  a.AddFactGroup(7, 100, std::vector<int32_t>{3, 1, 2});
  a.AddFactGroup(7, 200, std::vector<int32_t>{});
  a.AddFactGroup(9, 150, std::vector<int32_t>{5});
  snapshot::Writer w;
  a.SaveTo(w);

  SpatialFactTable b;
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(b.fact_count(), a.fact_count());
  const auto at150 = b.AreasCloseAt(7, 150);
  EXPECT_EQ(std::vector<int32_t>(at150.begin(), at150.end()),
            (std::vector<int32_t>{1, 2, 3}));
  EXPECT_TRUE(b.AreasCloseAt(7, 250).empty());
  EXPECT_TRUE(b.IsCloseAt(9, 5, 150));
  EXPECT_FALSE(b.IsCloseAt(9, 5, 100));
}

TEST(SpatialFactTableSnapshotTest, UnsortedAreasAreCorruption) {
  SpatialFactTable a;
  a.AddFactGroup(7, 100, std::vector<int32_t>{1, 2});
  snapshot::Writer w;
  a.SaveTo(w);
  // The two areas of the single group are the last 8 bytes; swap them.
  std::string bytes(w.bytes());
  ASSERT_GE(bytes.size(), 8u);
  std::swap(bytes[bytes.size() - 8], bytes[bytes.size() - 4]);
  SpatialFactTable b;
  snapshot::Reader r(bytes);
  EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kCorruption);
  EXPECT_EQ(b.fact_count(), 0u) << "no partial state on error";
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// The v1 section format, pinned byte for byte: the bytes below were written
// by the map-of-vectors table this format was defined with. Vessels ascend
// by MMSI; a vessel is its MMSI, its group count, and per group the time,
// the id count and the sorted ids (all little-endian).
TEST(SpatialFactTableSnapshotTest, V1BytesAreGolden) {
  SpatialFactTable a;
  a.AddFactGroup(9, 150, std::vector<int32_t>{5});
  a.AddFactGroup(7, 200, std::vector<int32_t>{});
  a.AddFactGroup(7, 100, std::vector<int32_t>{3, 1});  // delayed
  a.AddFactGroup(7, 40, std::vector<int32_t>{2});      // delayed, purged
  a.PurgeBefore(120);
  const std::string golden = FromHex(
      "01"                                // format version
      "0200000000000000"                  // 2 vessels
      "07000000" "0200000000000000"       // MMSI 7, 2 groups
      "6400000000000000" "0200000000000000" "01000000" "03000000"
      "c800000000000000" "0000000000000000"
      "09000000" "0100000000000000"       // MMSI 9, 1 group
      "9600000000000000" "0100000000000000" "05000000");
  snapshot::Writer w;
  a.SaveTo(w);
  EXPECT_EQ(std::string(w.bytes()), golden);
  EXPECT_EQ(a.fact_count(), 3u);

  SpatialFactTable b;
  snapshot::Reader r(golden);
  ASSERT_TRUE(b.RestoreFrom(r).ok());
  snapshot::Writer again;
  b.SaveTo(again);
  EXPECT_EQ(std::string(again.bytes()), golden);
}

TEST(SpatialFactTableSnapshotTest, UnorderedOrEmptyVesselsAreCorruption) {
  // SaveTo writes each vessel once, in ascending MMSI order, with at least
  // one group; anything else is not a table it wrote.
  const std::string descending = FromHex(
      "01" "0200000000000000"
      "09000000" "0100000000000000"
      "9600000000000000" "0100000000000000" "05000000"
      "07000000" "0100000000000000" "6400000000000000" "0000000000000000");
  const std::string empty_vessel = FromHex(
      "01" "0100000000000000" "07000000" "0000000000000000");
  for (const std::string& bytes : {descending, empty_vessel}) {
    SpatialFactTable t;
    snapshot::Reader r(bytes);
    EXPECT_EQ(t.RestoreFrom(r).code(), StatusCode::kCorruption);
    EXPECT_EQ(t.fact_count(), 0u);
    EXPECT_TRUE(t.AreasCloseAt(9, 200).empty());
  }
}

// --- MOD layer --------------------------------------------------------------

TEST(StoreSnapshotTest, RoundTripPreservesQueriesAndIndexes) {
  mod::TrajectoryStore a;
  for (int i = 0; i < 5; ++i) {
    mod::Trip t;
    t.mmsi = 100 + static_cast<stream::Mmsi>(i % 2);
    t.origin_port = i;
    t.destination_port = (i + 1) % 3;
    t.start_tau = 1000 * i;
    t.end_tau = 1000 * i + 500;
    t.distance_m = 1500.0 * (i + 1);
    // A trip as TripBuilder::Add makes it: two points or more, from
    // start_tau to no earlier than end_tau.
    tracker::CriticalPoint from, to;
    from.mmsi = to.mmsi = t.mmsi;
    from.tau = t.start_tau;
    to.tau = t.end_tau;
    t.points = {from, to};
    a.AddTrip(std::move(t));
  }
  snapshot::Writer w;
  a.SaveTo(w);

  mod::TrajectoryStore b;
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(b.trip_count(), a.trip_count());
  EXPECT_EQ(b.TripsOfVessel(100).size(), a.TripsOfVessel(100).size());
  EXPECT_EQ(b.TripsTo(1).size(), a.TripsTo(1).size());
  const auto od_a = a.OriginDestinationMatrix();
  const auto od_b = b.OriginDestinationMatrix();
  ASSERT_EQ(od_a.size(), od_b.size());
  for (const auto& [key, cell] : od_a) {
    const auto it = od_b.find(key);
    ASSERT_NE(it, od_b.end());
    EXPECT_EQ(it->second.trips, cell.trips);
    EXPECT_EQ(it->second.total_travel_time, cell.total_travel_time);
    EXPECT_EQ(it->second.total_distance_m, cell.total_distance_m);
  }
}

TEST(StoreSnapshotTest, TruncationIsCorruptionWithoutPartialState) {
  mod::TrajectoryStore a;
  mod::Trip t;
  t.mmsi = 1;
  a.AddTrip(std::move(t));
  snapshot::Writer w;
  a.SaveTo(w);
  for (size_t len = 0; len < w.bytes().size(); ++len) {
    mod::TrajectoryStore b;
    snapshot::Reader r(std::string_view(w.bytes()).substr(0, len));
    EXPECT_FALSE(b.RestoreFrom(r).ok());
    EXPECT_EQ(b.trip_count(), 0u) << "partial state after truncation " << len;
  }
}

// A trip of two critical points at `from` and `to` (a TripBuilder trip).
mod::Trip TwoPointTrip(Timestamp from, Timestamp to) {
  mod::Trip t;
  t.mmsi = 7;
  t.origin_port = 1;
  t.destination_port = 2;
  tracker::CriticalPoint a, b;
  a.mmsi = b.mmsi = t.mmsi;
  a.tau = from;
  b.tau = to;
  t.points = {a, b};
  t.start_tau = from;
  t.end_tau = to;
  t.distance_m = 5000.0;
  return t;
}

StatusCode RestoreStoreCode(const mod::Trip& trip) {
  mod::TrajectoryStore a;
  a.AddTrip(trip);
  snapshot::Writer w;
  a.SaveTo(w);
  mod::TrajectoryStore b;
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  EXPECT_EQ(b.trip_count(), s.ok() ? 1u : 0u);
  return s.code();
}

// A restored trip is one TripBuilder::Add can make; otherwise a travel time
// or an overlap query reads timestamps no run wrote.
TEST(StoreSnapshotTest, TripOutsideTheBuilderDomainIsCorruption) {
  const mod::Trip valid = TwoPointTrip(1000, 5000);
  EXPECT_EQ(RestoreStoreCode(valid), StatusCode::kOk);
  mod::Trip ends_before_its_last_point = valid;
  ends_before_its_last_point.end_tau = 4000;  // a stop's duration before
  EXPECT_EQ(RestoreStoreCode(ends_before_its_last_point), StatusCode::kOk);
  // Points between the first and the last are in arrival order: a
  // retroactive slow-motion start can follow a later turn.
  mod::Trip retroactive = valid;
  tracker::CriticalPoint turn = valid.points[0], slow_start = turn;
  turn.tau = 3000;
  slow_start.tau = 2000;
  retroactive.points.insert(retroactive.points.begin() + 1,
                            {turn, slow_start});
  EXPECT_EQ(RestoreStoreCode(retroactive), StatusCode::kOk);

  std::vector<std::pair<const char*, mod::Trip>> broken;
  mod::Trip t = valid;
  t.points.pop_back();
  broken.emplace_back("one point", t);
  t.points.clear();
  broken.emplace_back("no points", t);
  t = valid;
  t.start_tau = 999;
  broken.emplace_back("start is not the first point's", t);
  t = valid;
  t.end_tau = 999;
  broken.emplace_back("ends before it starts", t);
  t = valid;
  t.end_tau = 5001;
  broken.emplace_back("ends after its last point", t);
  for (const auto& [what, trip] : broken) {
    EXPECT_EQ(RestoreStoreCode(trip), StatusCode::kCorruption) << what;
  }
}

// `fuzz_snapshot -seed=13` under UBSan: an archiver section whose archived
// trip runs from -4352876601844973053 to 8751533046827181074, so
// Statistics() overflowed subtracting one from the other. Points that agree
// with both timestamps are rejected by the travel time alone.
TEST(StoreSnapshotTest, OverflowingTravelTimeIsCorruption) {
  const mod::Trip trip =
      TwoPointTrip(-4352876601844973053, 8751533046827181074);
  snapshot::Writer w;
  w.U8(2);                                   // archiver format
  w.Put(uint8_t{1}, 1000.0, uint64_t{0});    // trip builder, no segments
  w.Put(uint64_t{0}, uint64_t{0});           // nothing staged or rebuilt
  mod::TrajectoryStore store;
  store.AddTrip(trip);
  store.SaveTo(w);
  w.U64(1);                                  // batches
  const surveillance::KnowledgeBase kb(1000.0);
  mod::HermesArchiver archiver(&kb);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(archiver.RestoreFrom(r).code(), StatusCode::kCorruption);
  EXPECT_EQ(archiver.Statistics().trip_count, 0u);
}

// --- pipeline ---------------------------------------------------------------

sim::WorldParams SmallWorldParams() {
  sim::WorldParams p;
  p.ports = 8;
  p.protected_areas = 3;
  p.forbidden_fishing_areas = 3;
  p.shallow_areas = 2;
  return p;
}

PipelineConfig SmallPipelineConfig() {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  return cfg;
}

TEST(PipelineSnapshotTest, ManifestDescribesTheRun) {
  sim::World world = sim::BuildWorld(31, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 10;
  fleet_cfg.duration = 3 * kHour;
  fleet_cfg.seed = 5;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  Timestamp last_q = 0;
  for (int i = 0; i < 6; ++i) {
    last_q = q.Fire();
    pipeline.RunSlide(last_q, replayer.NextBatch(last_q));
  }

  snapshot::Writer w;
  pipeline.SaveTo(w);
  const Result<surveillance::SnapshotManifest> m =
      surveillance::ReadSnapshotManifest(w.bytes());
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m.value().last_query, last_q);
  EXPECT_EQ(m.value().window.range, cfg.window.range);
  EXPECT_EQ(m.value().window.slide, cfg.window.slide);
  EXPECT_EQ(m.value().partitions, cfg.partitions);
  EXPECT_EQ(m.value().tracker_shards, cfg.tracker_shards);
  EXPECT_TRUE(m.value().archive);
}

// Only the archiver drains the window's critical points, so a pipeline
// without one must not keep them: the manifest counts none however long the
// run.
TEST(PipelineSnapshotTest, ArchiveOffPipelineHoldsNoWindowPoints) {
  sim::World world = sim::BuildWorld(5);
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 40;
  fleet_cfg.duration = 12 * kHour;
  fleet_cfg.seed = 5;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  const std::vector<stream::PositionTuple> tuples = fleet.Generate();
  for (const bool archive : {false, true}) {
    SCOPED_TRACE(archive ? "archive on" : "archive off");
    PipelineConfig cfg = SmallPipelineConfig();
    cfg.archive = archive;
    SurveillancePipeline pipeline(&world.knowledge, cfg);
    stream::StreamReplayer replayer(tuples);
    stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
    for (int i = 0; i < 60; ++i) {
      const Timestamp qt = q.Fire();
      pipeline.RunSlide(qt, replayer.NextBatch(qt));
    }
    snapshot::Writer w;
    pipeline.SaveTo(w);
    const Result<surveillance::SnapshotManifest> m =
        surveillance::ReadSnapshotManifest(w.bytes());
    ASSERT_TRUE(m.ok()) << m.status();
    if (archive) {
      EXPECT_GT(m.value().window_critical_points, 0u);
    } else {
      EXPECT_EQ(m.value().window_critical_points, 0u);
    }
  }
}

// So an archive-off snapshot that lists window points is not one SaveTo
// writes: it is Corruption, not points read and dropped.
TEST(PipelineSnapshotTest, ArchiveOffWindowPointsAreCorruption) {
  sim::World world = sim::BuildWorld(36, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 5;
  fleet_cfg.duration = 90 * kMinute;
  fleet_cfg.seed = 6;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());
  PipelineConfig cfg = SmallPipelineConfig();
  cfg.archive = false;
  SurveillancePipeline a(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < 3; ++i) {
    const Timestamp qt = q.Fire();
    a.RunSlide(qt, replayer.NextBatch(qt));
  }
  snapshot::Writer w;
  a.SaveTo(w);
  const std::string saved(w.bytes());
  // The empty pipeline section: tag, version, length 8, zero points.
  const std::string empty = RecordBytes(uint32_t{0x45504950},  // "PIPE"
                                        uint8_t{1}, uint64_t{8}, uint64_t{0});
  const size_t at = saved.find(empty);
  ASSERT_NE(at, std::string::npos);
  snapshot::Writer points;
  tracker::CriticalPoint cp;
  cp.mmsi = 7;
  cp.tau = 1234;
  points.Put(uint32_t{0x45504950}, uint8_t{1},
             uint64_t{8 + 2 * tracker::kCriticalPointBytes}, uint64_t{2});
  tracker::SaveCriticalPoint(cp, points);
  tracker::SaveCriticalPoint(cp, points);
  std::string listing = saved;
  listing.replace(at, empty.size(), std::string(points.bytes()));

  SurveillancePipeline b(&world.knowledge, cfg);
  snapshot::Reader r(listing);
  EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kCorruption);
  snapshot::Reader unchanged(saved);
  EXPECT_TRUE(b.RestoreFrom(unchanged).ok());
}

TEST(PipelineSnapshotTest, ConfigMismatchIsInvalidArgument) {
  sim::World world = sim::BuildWorld(32, SmallWorldParams());
  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  snapshot::Writer w;
  a.SaveTo(w);

  PipelineConfig other = cfg;
  other.window.slide = 5 * kMinute;
  SurveillancePipeline b1(&world.knowledge, other);
  snapshot::Reader r1(w.bytes());
  EXPECT_EQ(b1.RestoreFrom(r1).code(), StatusCode::kInvalidArgument);

  other = cfg;
  other.partitions = 2;
  SurveillancePipeline b2(&world.knowledge, other);
  snapshot::Reader r2(w.bytes());
  EXPECT_EQ(b2.RestoreFrom(r2).code(), StatusCode::kInvalidArgument);

  other = cfg;
  other.tracker_shards = 2;
  SurveillancePipeline b3(&world.knowledge, other);
  snapshot::Reader r3(w.bytes());
  EXPECT_EQ(b3.RestoreFrom(r3).code(), StatusCode::kInvalidArgument);

  other = cfg;
  other.archive = false;
  SurveillancePipeline b4(&world.knowledge, other);
  snapshot::Reader r4(w.bytes());
  EXPECT_EQ(b4.RestoreFrom(r4).code(), StatusCode::kInvalidArgument);

  // Rejected by the engine section, which records the resolved mode.
  other = cfg;
  other.recognition_engine = surveillance::EngineMode::kIncremental;
  SurveillancePipeline b5(&world.knowledge, other);
  snapshot::Reader r5(w.bytes());
  EXPECT_EQ(b5.RestoreFrom(r5).code(), StatusCode::kInvalidArgument);
}

TEST(PipelineSnapshotTest, ManifestRecordsResolvedEngineMode) {
  // kAuto at ω = 6β resolves to the incremental engine; the manifest must
  // say so rather than echo a default flag.
  sim::World world = sim::BuildWorld(35, SmallWorldParams());
  PipelineConfig cfg = SmallPipelineConfig();
  ASSERT_EQ(cfg.window.range, 6 * cfg.window.slide);
  for (const auto& [mode, incremental] :
       {std::pair{surveillance::EngineMode::kAuto, true},
        std::pair{surveillance::EngineMode::kNaive, false}}) {
    cfg.recognition_engine = mode;
    SurveillancePipeline pipeline(&world.knowledge, cfg);
    snapshot::Writer w;
    pipeline.SaveTo(w);
    const Result<surveillance::SnapshotManifest> m =
        surveillance::ReadSnapshotManifest(w.bytes());
    ASSERT_TRUE(m.ok()) << m.status();
    EXPECT_EQ(m.value().incremental_recognition, incremental);
  }
}

TEST(PipelineSnapshotTest, SaveLoadFileRoundTrip) {
  sim::World world = sim::BuildWorld(33, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 8;
  fleet_cfg.duration = 2 * kHour;
  fleet_cfg.seed = 9;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < 4; ++i) {
    const Timestamp qt = q.Fire();
    a.RunSlide(qt, replayer.NextBatch(qt));
  }

  const std::string path = ::testing::TempDir() + "/pipeline.msnp";
  ASSERT_TRUE(a.SaveSnapshot(path).ok());
  SurveillancePipeline b(&world.knowledge, cfg);
  const Status s = b.LoadSnapshot(path);
  ASSERT_TRUE(s.ok()) << s;
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, TruncatedPayloadNeverCrashes) {
  sim::World world = sim::BuildWorld(34, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 5;
  fleet_cfg.duration = 90 * kMinute;
  fleet_cfg.seed = 4;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < 3; ++i) {
    const Timestamp qt = q.Fire();
    a.RunSlide(qt, replayer.NextBatch(qt));
  }
  snapshot::Writer w;
  a.SaveTo(w);
  const std::string_view bytes = w.bytes();
  // Stride through truncation lengths (full sweep is quadratic in payload
  // size); every prefix must produce a Status, never a crash.
  for (size_t len = 0; len < bytes.size(); len += 97) {
    SurveillancePipeline b(&world.knowledge, cfg);
    snapshot::Reader r(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(b.RestoreFrom(r).ok()) << "truncated to " << len;
  }
}

// A pipeline snapshot of `world`'s small run: three slides, archive on.
std::string ThreeSlideSnapshot(sim::World& world) {
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 5;
  fleet_cfg.duration = 90 * kMinute;
  fleet_cfg.seed = 4;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());
  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < 3; ++i) {
    const Timestamp qt = q.Fire();
    a.RunSlide(qt, replayer.NextBatch(qt));
  }
  snapshot::Writer w;
  a.SaveTo(w);
  return std::string(w.bytes());
}

// SaveTo writes the manifest from the state, so a manifest that describes
// other state, or holds a flag byte other than 0/1, is not SaveTo's bytes.
TEST(PipelineSnapshotTest, ManifestThatDoesNotDescribeTheStateIsCorruption) {
  sim::World world = sim::BuildWorld(37, SmallWorldParams());
  const std::string saved = ThreeSlideSnapshot(world);
  // The manifest body follows its 13-byte frame header: i64 last query,
  // i64 range, i64 slide, i32 partitions, i32 shards, u8 archive, u8
  // incremental, then u64 window points, archived trips, spans narrowed
  // and fleet-floor hits.
  constexpr size_t kArchiveFlag = 13 + 3 * 8 + 2 * 4;
  constexpr size_t kIncrementalFlag = kArchiveFlag + 1;
  constexpr size_t kWindowPoints = kIncrementalFlag + 1;
  const auto restore = [&](const std::string& bytes) {
    SurveillancePipeline b(&world.knowledge, SmallPipelineConfig());
    snapshot::Reader r(bytes);
    return b.RestoreFrom(r).code();
  };
  ASSERT_EQ(restore(saved), StatusCode::kOk);
  for (const size_t at : {kArchiveFlag, kIncrementalFlag}) {
    std::string bytes = saved;
    bytes[at] = 2;
    EXPECT_EQ(restore(bytes), StatusCode::kCorruption) << at;
    EXPECT_EQ(surveillance::ReadSnapshotManifest(bytes).status().code(),
              StatusCode::kCorruption)
        << at;
  }
  for (const size_t at : {kIncrementalFlag, kWindowPoints,
                          kWindowPoints + 8, kWindowPoints + 16,
                          kWindowPoints + 24}) {
    std::string bytes = saved;
    bytes[at] ^= 1;
    EXPECT_EQ(restore(bytes), StatusCode::kCorruption) << at;
  }
}

// The partitioned recognizer's record closes with three retired cache
// counters. The engines' records carry the cache statistics, so SaveTo
// writes 0 for each; a nonzero value would be counted twice by totals().
TEST(PartitionedRecognizerSnapshotTest, NonzeroRetiredCacheCountersAreCorruption) {
  sim::World world = sim::BuildWorld(39, SmallWorldParams());
  surveillance::RecognizerConfig config;
  config.window = stream::WindowSpec{kHour, 10 * kMinute};
  const auto make = [&world, &config] {
    return std::make_unique<surveillance::PartitionedRecognizer>(
        world.knowledge, config, 2);
  };
  const auto a = make();
  tracker::ShardedMobilityTracker tracker(tracker::TrackerParams(), 1);
  for (Timestamp q = 600; q <= 1800; q += 600) {
    a->Feed(tracker.ProcessSlide(SyntheticTuples(q - 600, q), q));
    a->Recognize(q);
  }
  snapshot::Writer w;
  a->SaveTo(w);
  const std::string saved(w.bytes());
  const size_t counters = saved.size() - 3 * sizeof(uint64_t);
  ASSERT_EQ(saved.substr(counters),
            RecordBytes(uint64_t{0}, uint64_t{0}, uint64_t{0}));
  const auto restore = [&make](const std::string& bytes) {
    snapshot::Reader r(bytes);
    return make()->RestoreFrom(r).code();
  };
  ASSERT_EQ(restore(saved), StatusCode::kOk);
  for (size_t i = 0; i < 3; ++i) {
    std::string bytes = saved;
    bytes.replace(counters + i * sizeof(uint64_t), sizeof(uint64_t),
                  RecordBytes(uint64_t{5}));
    EXPECT_EQ(restore(bytes), StatusCode::kCorruption) << i;
  }
}

// --- format versions --------------------------------------------------------

// One versioned reader: how to save a fresh instance, where the version
// sits in those bytes (a u8, or the container's u32), the range of versions
// it reads, and how to restore bytes into a fresh instance.
struct VersionedReader {
  std::string name;
  uint32_t oldest;
  uint32_t newest;
  std::function<std::string()> save;
  size_t version_at = 0;
  size_t version_bytes = 1;
  std::function<Status(std::string_view)> restore;
};

// A component record leads with its version; `make` builds a fresh one.
template <typename Make>
VersionedReader Component(std::string name, uint32_t oldest, uint32_t newest,
                          Make make) {
  return {std::move(name), oldest, newest,
          [make] {
            snapshot::Writer w;
            make()->SaveTo(w);
            return std::string(w.bytes());
          },
          0, 1,
          [make](std::string_view bytes) {
            snapshot::Reader r(bytes);
            return make()->RestoreFrom(r);
          }};
}

// Offset of the frame tagged `tag` in a pipeline payload, walking the
// frames (u32 tag, u8 version, u64 length, body).
size_t FrameAt(std::string_view payload, uint32_t tag) {
  size_t at = 0;
  while (at + 13 <= payload.size()) {
    uint32_t t = 0;
    uint64_t length = 0;
    std::memcpy(&t, payload.data() + at, sizeof(t));
    std::memcpy(&length, payload.data() + at + 5, sizeof(length));
    if (t == tag) return at;
    at += 13 + length;
  }
  return std::string::npos;
}

// Every versioned reader accepts exactly the versions in [oldest, newest]:
// the newest is what SaveTo writes, and only the sharded tracker and the
// archiver still read a v1 (the committed fixture holds both). Version 0,
// which no build wrote, is Corruption; any other version outside the range
// is Unimplemented.
TEST(SnapshotVersionTest, EveryReaderRejectsVersionsOutsideItsRange) {
  sim::World world = sim::BuildWorld(38, SmallWorldParams());
  const surveillance::KnowledgeBase& kb = world.knowledge;
  const std::string pipeline = ThreeSlideSnapshot(world);
  const tracker::TrackerParams params;
  std::vector<VersionedReader> readers = {
      Component("spatial fact table", 1, 1,
                [] { return std::make_unique<SpatialFactTable>(); }),
      Component("recognizer", 1, 1,
                [&kb] {
                  return std::make_unique<surveillance::CERecognizer>(
                      &kb, surveillance::RecognizerConfig{});
                }),
      Component("partitioned recognizer", 1, 1,
                [&kb] {
                  return std::make_unique<surveillance::PartitionedRecognizer>(
                      kb, surveillance::RecognizerConfig{}, 1);
                }),
      Component("rtec engine", 3, 3,
                [] {
                  return std::move(
                      SnapshotEngineFixture(stream::WindowSpec{120, 60})
                          .engine);
                }),
      Component("mobility tracker", 2, 2,
                [params] {
                  return std::make_unique<tracker::MobilityTracker>(params);
                }),
      Component("compressor", 1, 1,
                [] { return std::make_unique<tracker::Compressor>(); }),
      Component("sharded tracker", 1, 2,
                [params] {
                  return std::make_unique<tracker::ShardedMobilityTracker>(
                      params, 2);
                }),
      Component("trip builder", 1, 1,
                [&kb] { return std::make_unique<mod::TripBuilder>(&kb); }),
      Component("trajectory store", 1, 1,
                [] { return std::make_unique<mod::TrajectoryStore>(); }),
      Component("archiver", 1, 2,
                [&kb] { return std::make_unique<mod::HermesArchiver>(&kb); }),
  };
  const auto restore_pipeline = [&kb](std::string_view bytes) {
    SurveillancePipeline p(&kb, SmallPipelineConfig());
    snapshot::Reader r(bytes);
    return p.RestoreFrom(r);
  };
  for (const auto& [tag, version] :
       {std::pair{"MANI", 2u}, std::pair{"TRKS", 1u}, std::pair{"RCGP", 1u},
        std::pair{"PIPE", 1u}, std::pair{"ARCH", 1u}}) {
    uint32_t code = 0;
    std::memcpy(&code, tag, sizeof(code));
    const size_t at = FrameAt(pipeline, code);
    ASSERT_NE(at, std::string::npos) << tag;
    readers.push_back({std::string(tag) + " section", version, version,
                       [&pipeline] { return pipeline; }, at + 4, 1,
                       restore_pipeline});
  }
  readers.push_back(
      {"file container", snapshot::kFileVersion, snapshot::kFileVersion,
       [&pipeline] { return snapshot::EncodeSnapshotFile(pipeline); }, 4, 4,
       [](std::string_view file) {
         return snapshot::DecodeSnapshotFile(file).status();
       }});

  for (const VersionedReader& reader : readers) {
    SCOPED_TRACE(reader.name);
    const std::string saved = reader.save();
    uint32_t written = 0;
    std::memcpy(&written, saved.data() + reader.version_at,
                reader.version_bytes);
    EXPECT_EQ(written, reader.newest);
    ASSERT_TRUE(reader.restore(saved).ok());
    std::vector<std::pair<uint32_t, StatusCode>> rejected = {
        {0, StatusCode::kCorruption},
        {reader.newest + 1, StatusCode::kUnimplemented}};
    if (reader.oldest > 1) {
      rejected.emplace_back(reader.oldest - 1, StatusCode::kUnimplemented);
    }
    for (const auto& [version, code] : rejected) {
      std::string bytes = saved;
      std::memcpy(bytes.data() + reader.version_at, &version,
                  reader.version_bytes);
      EXPECT_EQ(reader.restore(bytes).code(), code) << "version " << version;
    }
  }
}

}  // namespace
}  // namespace maritime
