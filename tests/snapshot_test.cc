#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
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
#include "mod/hermes.h"
#include "mod/store.h"
#include "rtec/engine.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/crc32_kernels.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"
#include "stream/snapshot_io.h"
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
  uint8_t version = 0;
  size_t end = 0;
  ASSERT_TRUE(r.BeginSection(0x31545354u, 2, &version, &end));
  EXPECT_EQ(version, 2);
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
  uint8_t version = 0;
  size_t end = 0;
  EXPECT_FALSE(r.BeginSection(0x32545354u, 1, &version, &end));
  EXPECT_FALSE(r.version_rejected());
}

TEST(SnapshotCodecTest, SectionFutureVersionRejected) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 3);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  uint8_t version = 0;
  size_t end = 0;
  EXPECT_FALSE(r.BeginSection(0x31545354u, 2, &version, &end));
  EXPECT_TRUE(r.version_rejected());
  EXPECT_EQ(SectionError(r, "x").code(), StatusCode::kUnimplemented);
}

TEST(SnapshotCodecTest, SectionUnderconsumptionDetected) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 1);
  w.U32(1);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  uint8_t version = 0;
  size_t end = 0;
  ASSERT_TRUE(r.BeginSection(0x31545354u, 1, &version, &end));
  EXPECT_FALSE(r.EndSection(end)) << "reader left bytes unconsumed";
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
    engine = std::make_unique<rtec::Engine>(window, nullptr, opts);
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

TEST(TrackerSnapshotTest, ShardCountMismatchIsInvalidArgument) {
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  snapshot::Writer w;
  a.SaveTo(w);
  tracker::ShardedMobilityTracker b(params, 3);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

// A 30 s report track of legs (bearing, speed, reports); a zero-speed leg
// jitters within 3 m of where it starts, so its reports are pause samples.
struct Leg {
  double bearing_deg;
  double knots;
  int reports;
};

std::vector<stream::PositionTuple> Voyage(stream::Mmsi mmsi,
                                          geo::GeoPoint start,
                                          std::initializer_list<Leg> legs) {
  std::vector<stream::PositionTuple> out;
  geo::GeoPoint pos = start;
  Timestamp tau = 0;
  for (const Leg& leg : legs) {
    const geo::GeoPoint anchor = pos;
    for (int i = 0; i < leg.reports; ++i) {
      out.push_back({mmsi, pos, tau});
      tau += 30;
      pos = leg.knots > 0.0
                ? geo::DestinationPoint(pos, leg.bearing_deg,
                                        leg.knots * geo::kKnotsToMps * 30.0)
                : geo::DestinationPoint(anchor, 37.0 * (i + 1), 3.0);
    }
  }
  return out;
}

// Writes one vessel of a tracker section in format v1, where the velocity
// history was speed/heading pairs and the stop and slow-motion samples were
// whole position tuples. The v1 tracker's buffers are derived from the
// reports by the tracker's rules for these simple tracks (every report
// accepted, one motion class per vessel); the scalar fields are taken from
// `ref`, a tracker that processed the same reports.
void WriteV1Vessel(const std::vector<stream::PositionTuple>& reports,
                   const tracker::VesselState& ref, size_t m,
                   snapshot::Writer& w) {
  std::vector<geo::Velocity> v;
  for (size_t i = 1; i < reports.size(); ++i) {
    v.push_back(geo::VelocityBetween(reports[i - 1].pos, reports[i - 1].tau,
                                     reports[i].pos, reports[i].tau));
  }
  const auto all = [&v](auto pred) {
    return std::all_of(v.begin(), v.end(), pred);
  };
  const bool pause = all([](const geo::Velocity& x) {
    return x.speed_knots < 1.0;
  });
  const bool moving = all([](const geo::Velocity& x) {
    return x.speed_knots >= 1.0;
  });
  const bool slow = moving && all([](const geo::Velocity& x) {
    return x.speed_knots <= 4.0;
  });
  const auto last_m = [m](auto items) {
    if (items.size() > m) items.erase(items.begin(), items.end() - m);
    return items;
  };
  std::vector<double> diffs;
  for (size_t i = 1; moving && i < v.size(); ++i) {
    diffs.push_back(
        geo::BearingDifferenceDeg(v[i - 1].heading_deg, v[i].heading_deg));
  }
  const std::vector<stream::PositionTuple> samples(reports.begin() + 1,
                                                   reports.end());
  const std::vector<stream::PositionTuple> none;

  w.U32(ref.mmsi);
  w.Bool(ref.has_last);
  stream::SavePositionTuple(ref.last, w);
  w.Bool(ref.has_velocity);
  geo::SaveVelocity(ref.v_prev, w);
  const std::vector<geo::Velocity> velocities = last_m(v);
  w.U64(velocities.size());
  for (const geo::Velocity& x : velocities) geo::SaveVelocity(x, w);
  diffs = last_m(diffs);
  w.U64(diffs.size());
  for (const double d : diffs) w.F64(d);
  const std::vector<stream::PositionTuple>& stop = pause ? samples : none;
  w.U64(stop.size());
  for (const auto& p : stop) stream::SavePositionTuple(p, w);
  w.Bool(ref.stop_active);
  w.I64(ref.stop_start_tau);
  const std::vector<stream::PositionTuple> slow_samples =
      last_m(slow ? samples : none);
  w.U64(slow_samples.size());
  for (const auto& p : slow_samples) stream::SavePositionTuple(p, w);
  w.Bool(ref.slow_active);
  w.I64(ref.slow_start_tau);
  geo::SaveGeoPoint(ref.slow_anchor, w);
  w.Bool(ref.gap_open);
  w.I64(ref.gap_start_tau);
  w.I32(ref.consecutive_outliers);
  w.U64(ref.accepted_count);
  w.F64(ref.odometer_m);
}

TEST(TrackerSnapshotTest, HandBuiltV1SectionRestoresIntoV2State) {
  const tracker::TrackerParams params;
  const auto m = static_cast<size_t>(params.history_size);
  // Anchored (an active stop of more than m samples at the cut), cruising,
  // and slow (fewer than m slow samples: the episode starts after the cut),
  // each with its reports before the cut.
  const std::vector<std::vector<stream::PositionTuple>> voyages = {
      Voyage(100, {24.0, 37.0}, {{0.0, 0.0, 40}, {120.0, 9.0, 20}}),
      Voyage(200, {24.2, 37.1}, {{45.0, 12.0, 30}, {90.0, 12.0, 30}}),
      Voyage(300, {24.4, 37.2}, {{200.0, 2.5, 60}})};
  const int cut[] = {15, 15, 8};
  std::vector<stream::PositionTuple> prefix, suffix;
  for (size_t i = 0; i < voyages.size(); ++i) {
    const auto& v = voyages[i];
    prefix.insert(prefix.end(), v.begin(), v.begin() + cut[i]);
    suffix.insert(suffix.end(), v.begin() + cut[i], v.end());
  }
  std::sort(prefix.begin(), prefix.end(), stream::StreamOrder);
  std::sort(suffix.begin(), suffix.end(), stream::StreamOrder);

  tracker::MobilityTracker ref(params);
  std::vector<tracker::CriticalPoint> ignored;
  for (const auto& t : prefix) ref.Process(t, &ignored);

  snapshot::Writer v1;
  v1.U8(1);
  v1.U64(voyages.size());
  for (size_t i = 0; i < voyages.size(); ++i) {
    const auto& v = voyages[i];
    const std::vector<stream::PositionTuple> reports(v.begin(),
                                                     v.begin() + cut[i]);
    const tracker::VesselState* state = ref.FindVessel(v.front().mmsi);
    ASSERT_NE(state, nullptr);
    WriteV1Vessel(reports, *state, m, v1);
  }
  const tracker::TrackerStats& stats = ref.stats();
  for (const uint64_t c :
       {stats.processed, stats.accepted, stats.stale_discarded,
        stats.outliers_discarded, stats.outlier_resets, stats.critical_points}) {
    v1.U64(c);
  }
  ASSERT_TRUE(ref.FindVessel(100)->stop_active);
  ASSERT_GT(ref.FindVessel(100)->stop_count, m);
  ASSERT_FALSE(ref.FindVessel(300)->slow_active);
  ASSERT_GT(ref.FindVessel(300)->slow_samples.size(), 0u);

  tracker::MobilityTracker restored(params);
  snapshot::Reader r(v1.bytes());
  const Status s = restored.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  // The v1 buffers became exactly the reference's rings and aggregates.
  snapshot::Writer a, b;
  ref.SaveTo(a);
  restored.SaveTo(b);
  EXPECT_EQ(a.bytes(), b.bytes());

  // And both emit identical critical points from there on: the restored
  // stop closes at the centroid of all its samples, the slow-motion episode
  // starts from restored and new samples alike.
  std::vector<tracker::CriticalPoint> ca, cb;
  for (const auto& t : suffix) {
    ref.Process(t, &ca);
    restored.Process(t, &cb);
  }
  ref.Finish(&ca);
  restored.Finish(&cb);
  const auto has = [&ca](uint32_t flag) {
    return std::any_of(ca.begin(), ca.end(), [flag](const auto& cp) {
      return (cp.flags & flag) != 0;
    });
  };
  EXPECT_TRUE(has(tracker::kStopEnd));
  EXPECT_TRUE(has(tracker::kSlowMotionStart));
  EXPECT_TRUE(has(tracker::kTurn));
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].mmsi, cb[i].mmsi) << i;
    EXPECT_EQ(ca[i].tau, cb[i].tau) << i;
    EXPECT_EQ(ca[i].flags, cb[i].flags) << i;
    EXPECT_EQ(ca[i].pos.lon, cb[i].pos.lon) << i;
    EXPECT_EQ(ca[i].pos.lat, cb[i].pos.lat) << i;
    EXPECT_EQ(ca[i].speed_knots, cb[i].speed_knots) << i;
    EXPECT_EQ(ca[i].heading_deg, cb[i].heading_deg) << i;
    EXPECT_EQ(ca[i].duration, cb[i].duration) << i;
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
    tracker::CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.tau = t.start_tau;
    t.points = {cp};
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

// An archive-off snapshot written before that fix lists window points; they
// are read and dropped, and the restored pipeline saves without them.
TEST(PipelineSnapshotTest, ArchiveOffWindowPointsOfOlderSnapshotsAreSkipped) {
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
  std::string older = saved;
  older.replace(at, empty.size(), std::string(points.bytes()));

  SurveillancePipeline b(&world.knowledge, cfg);
  snapshot::Reader r(older);
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  snapshot::Writer resaved;
  b.SaveTo(resaved);
  EXPECT_EQ(resaved.bytes(), saved);
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

}  // namespace
}  // namespace maritime
