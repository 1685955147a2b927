// The runtime ISA probe and the aligned storage the SIMD tier sits on.
// Suite names matter: the `simd_cpu_features` ctest entry runs exactly
// CpuFeatures* and AlignedBuffer*.
#include "util/cpu_features.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/aligned_buffer.hpp"

namespace hetopt::util {
namespace {

/// Saves and restores HETOPT_FORCE_ISA around a test (the CI forced-scalar
/// job sets it process-wide; the test must not clobber that for later tests).
class ForceIsaGuard {
 public:
  ForceIsaGuard() {
    const char* value = std::getenv("HETOPT_FORCE_ISA");
    if (value != nullptr) {
      had_value_ = true;
      value_ = value;
    }
  }
  ~ForceIsaGuard() {
    if (had_value_) {
      ::setenv("HETOPT_FORCE_ISA", value_.c_str(), 1);
    } else {
      ::unsetenv("HETOPT_FORCE_ISA");
    }
  }

 private:
  bool had_value_ = false;
  std::string value_;
};

TEST(CpuFeatures, IsaLevelStringsRoundTrip) {
  for (const IsaLevel level : {IsaLevel::kScalar, IsaLevel::kAvx2}) {
    const auto parsed = isa_from_string(to_string(level));
    ASSERT_TRUE(parsed.has_value()) << to_string(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(isa_from_string("").has_value());
  EXPECT_FALSE(isa_from_string("avx512").has_value());
  EXPECT_FALSE(isa_from_string("AVX2").has_value());  // exact, lowercase names
  EXPECT_FALSE(isa_from_string("sse2").has_value());  // no 2-lane tier
}

TEST(CpuFeatures, ProbeIsCachedAndInternallyConsistent) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b);  // one probe per process
  EXPECT_FALSE(a.model_name.empty());
  // Feature implication on real silicon (and on the all-false non-x86
  // probe): AVX2 implies AVX.
  if (a.avx2) EXPECT_TRUE(a.avx);
}

// Raw probe words for the pure AVX/AVX2 decision.
constexpr std::uint32_t kAvx = 1u << 28;      // leaf 1 ECX
constexpr std::uint32_t kOsxsave = 1u << 27;  // leaf 1 ECX
constexpr std::uint32_t kAvx2 = 1u << 5;      // leaf 7 EBX
constexpr std::uint64_t kXmmYmm = 0b111;      // XCR0: x87, SSE and AVX state

TEST(CpuFeatures, AvxWithoutOsxsaveIsOff) {
  // The CPU has AVX and AVX2, but the OS never enabled XSAVE: YMM state is
  // not saved across context switches, so no AVX code may run.
  const CpuFeatures f = vector_features(kAvx, kAvx2, 0);
  EXPECT_FALSE(f.avx);
  EXPECT_FALSE(f.avx2);
}

TEST(CpuFeatures, OsxsaveWithoutYmmStateInXcr0IsOff) {
  for (const std::uint64_t xcr0 : {std::uint64_t{0b011}, std::uint64_t{0b101},
                                   std::uint64_t{0b001}, std::uint64_t{0}}) {
    const CpuFeatures f = vector_features(kAvx | kOsxsave, kAvx2, xcr0);
    EXPECT_FALSE(f.avx) << "xcr0=" << xcr0;
    EXPECT_FALSE(f.avx2) << "xcr0=" << xcr0;
  }
}

TEST(CpuFeatures, AvxOsxsaveAndYmmStateEnableAvxAndAvx2FollowsLeaf7) {
  const CpuFeatures with = vector_features(kAvx | kOsxsave, kAvx2, kXmmYmm);
  EXPECT_TRUE(with.avx);
  EXPECT_TRUE(with.avx2);
  const CpuFeatures without = vector_features(kAvx | kOsxsave, ~kAvx2, kXmmYmm);
  EXPECT_TRUE(without.avx);
  EXPECT_FALSE(without.avx2);
  // No AVX bit: neither, whatever the rest says.
  const CpuFeatures no_avx = vector_features(kOsxsave, kAvx2, kXmmYmm);
  EXPECT_FALSE(no_avx.avx);
  EXPECT_FALSE(no_avx.avx2);
  EXPECT_EQ(with.model_name, "unknown");
}

TEST(CpuFeatures, DetectedIsaMatchesTheFeatureFlags) {
  EXPECT_EQ(detected_isa(), cpu_features().avx2 ? IsaLevel::kAvx2 : IsaLevel::kScalar);
}

TEST(CpuFeatures, SupportIsMonotoneDownward) {
  // Everything at or below the detected level runs; scalar always runs.
  EXPECT_TRUE(cpu_supports(IsaLevel::kScalar));
  const IsaLevel detected = detected_isa();
  for (const IsaLevel level : {IsaLevel::kScalar, IsaLevel::kAvx2}) {
    if (static_cast<int>(level) <= static_cast<int>(detected)) {
      EXPECT_TRUE(cpu_supports(level)) << to_string(level);
    }
  }
}

TEST(CpuFeatures, ForcedIsaReadsTheEnvironmentPerCall) {
  const ForceIsaGuard guard;
  ::unsetenv("HETOPT_FORCE_ISA");
  EXPECT_FALSE(forced_isa().has_value());
  ::setenv("HETOPT_FORCE_ISA", "", 1);
  EXPECT_FALSE(forced_isa().has_value());  // empty counts as unset
  ::setenv("HETOPT_FORCE_ISA", "scalar", 1);
  ASSERT_TRUE(forced_isa().has_value());
  EXPECT_EQ(*forced_isa(), IsaLevel::kScalar);
  ::setenv("HETOPT_FORCE_ISA", "avx2", 1);
  EXPECT_EQ(*forced_isa(), IsaLevel::kAvx2);  // re-read, not cached
  ::setenv("HETOPT_FORCE_ISA", "turbo", 1);
  EXPECT_THROW((void)forced_isa(), std::runtime_error);  // typos are hard errors
}

TEST(CpuFeatures, ForcingSse2IsAnUnknownIsaNamingTheLevelsLeft) {
  // x86 hosts without AVX2 run the scalar kernel; there is no 2-lane level
  // to force, and the error lists the two that exist.
  const ForceIsaGuard guard;
  ::setenv("HETOPT_FORCE_ISA", "sse2", 1);
  try {
    (void)forced_isa();
    ADD_FAILURE() << "HETOPT_FORCE_ISA=sse2 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "HETOPT_FORCE_ISA: unknown ISA 'sse2' (expected scalar or avx2)");
  }
}

TEST(AlignedBuffer, StorageStartsOnACacheLine) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedBuffer<std::uint64_t> buffer(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) % 64, 0u) << n;
    EXPECT_EQ(buffer.size(), n);
  }
  const AlignedBuffer<std::uint32_t> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
}

TEST(AlignedBuffer, AssignFillsAndOverwrites) {
  AlignedBuffer<int> buffer;
  buffer.assign(5, 42);
  ASSERT_EQ(buffer.size(), 5u);
  for (const int v : buffer) EXPECT_EQ(v, 42);
  buffer.assign(3, 7);
  ASSERT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer[0], 7);
}

TEST(AlignedBuffer, ResizeGrowsValueInitializedAndPreservesThePrefix) {
  AlignedBuffer<int> buffer(3, 9);
  buffer.resize(8);
  ASSERT_EQ(buffer.size(), 8u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) % 64, 0u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(buffer[i], 9) << i;
  for (std::size_t i = 3; i < 8; ++i) EXPECT_EQ(buffer[i], 0) << i;
  // Shrink requests keep the buffer as-is (scratch reuse across runs).
  buffer.resize(2);
  EXPECT_EQ(buffer.size(), 8u);
}

TEST(AlignedBuffer, CopyMoveAndEquality) {
  AlignedBuffer<int> a(4, 1);
  a[2] = 5;
  const AlignedBuffer<int> copy(a);
  EXPECT_TRUE(copy == a);
  EXPECT_NE(copy.data(), a.data());

  AlignedBuffer<int> assigned;
  assigned = a;
  EXPECT_TRUE(assigned == a);

  const int* const storage = a.data();
  const AlignedBuffer<int> moved(std::move(a));
  EXPECT_EQ(moved.data(), storage);  // moves steal the allocation
  EXPECT_TRUE(moved == copy);

  AlignedBuffer<int> different(4, 1);
  EXPECT_FALSE(different == copy);
}

}  // namespace
}  // namespace hetopt::util
