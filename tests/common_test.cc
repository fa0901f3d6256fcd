// Unit tests for the common runtime substrate.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/siphash.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/common/union_find.h"
#include "src/common/xml.h"

namespace detector {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a() == b() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoundedCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(10));
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Rng, BinomialMeanMatches) {
  Rng rng(11);
  const int trials = 2000;
  const int64_t n = 100;
  const double p = 0.3;
  double total = 0;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(rng.NextBinomial(n, p));
  }
  EXPECT_NEAR(total / trials, static_cast<double>(n) * p, 1.0);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(5);
  EXPECT_EQ(rng.NextBinomial(0, 0.5), 0);
  EXPECT_EQ(rng.NextBinomial(100, 0.0), 0);
  EXPECT_EQ(rng.NextBinomial(100, 1.0), 100);
}

TEST(Rng, LogUniformWithinBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextLogUniform(1e-4, 1.0);
    EXPECT_GE(x, 1e-4);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Hash, SplitMix64IsStable) {
  EXPECT_EQ(SplitMix64(0), SplitMix64(0));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
}

// Byte-at-a-time reference CRC-32 (reflected 0xEDB88320), kept apart from the library's
// table layout so a faster Crc32 is checked against the plain algorithm.
uint32_t ReferenceCrc32(std::span<const uint8_t> bytes, uint32_t seed = 0) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const uint8_t byte : bytes) {
    c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswersChainingAndReference) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(check.data()),
                                           check.size())),
            0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);

  Rng rng(2024);
  std::vector<uint8_t> bytes(64);
  for (uint8_t& byte : bytes) {
    byte = static_cast<uint8_t>(rng.NextBounded(256));
  }
  const std::span<const uint8_t> all(bytes);
  // Chained: the CRC of a split input, seeded with the CRC of its prefix, is the CRC of the
  // whole — at every split point, so every alignment of the fast path meets the tail.
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    EXPECT_EQ(Crc32(all.subspan(cut), Crc32(all.subspan(0, cut))), Crc32(all)) << "cut " << cut;
  }
  for (size_t len = 0; len <= bytes.size(); ++len) {
    EXPECT_EQ(Crc32(all.subspan(0, len)), ReferenceCrc32(all.subspan(0, len))) << "len " << len;
    // Unaligned starts too: the wide loop must not assume an aligned buffer.
    if (len > 0) {
      EXPECT_EQ(Crc32(all.subspan(1, len - 1)), ReferenceCrc32(all.subspan(1, len - 1)))
          << "offset 1, len " << len - 1;
    }
  }
}

// SipHash-2-4's reference vectors (key 00..0f, message 00..n-1): the empty message, the
// paper's 15-byte example, one and several whole words — read at every byte offset, since
// the word loop loads from whatever alignment the frame or record buffer has.
TEST(SipHash, ReferenceVectorsAtAnyAlignment) {
  constexpr uint64_t k0 = 0x0706050403020100ULL;
  constexpr uint64_t k1 = 0x0f0e0d0c0b0a0908ULL;
  const std::pair<size_t, uint64_t> vectors[] = {{0, 0x726fdb47dd0e0e31ULL},
                                                 {8, 0x93f5f5799a932462ULL},
                                                 {15, 0xa129ca6149be45e5ULL},
                                                 {63, 0x958a324ceb064572ULL}};
  for (const auto& [length, expected] : vectors) {
    for (size_t offset = 0; offset < 8; ++offset) {
      std::vector<uint8_t> buffer(offset + length);
      for (size_t i = 0; i < length; ++i) {
        buffer[offset + i] = static_cast<uint8_t>(i);
      }
      EXPECT_EQ(SipHash24(k0, k1, std::span<const uint8_t>(buffer).subspan(offset)), expected)
          << "length " << length << " offset " << offset;
    }
  }
}

TEST(Stats, OnlineMeanVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 4.571428, 1e-5);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(Stats, ConfusionRatios) {
  ConfusionCounts c;
  c.true_positives = 9;
  c.false_positives = 1;
  c.false_negatives = 1;
  EXPECT_DOUBLE_EQ(c.Accuracy(), 0.9);
  EXPECT_DOUBLE_EQ(c.FalsePositiveRatio(), 0.1);
  EXPECT_DOUBLE_EQ(c.FalseNegativeRatio(), 0.1);
}

TEST(Stats, ConfusionZeroDenominators) {
  ConfusionCounts c;
  EXPECT_DOUBLE_EQ(c.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(c.FalsePositiveRatio(), 0.0);
}

TEST(UnionFind, BasicUnions) {
  UnionFind uf(10);
  EXPECT_EQ(uf.NumSets(), 10u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.NumSets(), 8u);
  EXPECT_EQ(uf.SetSize(1), 3u);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=2", "--name=fattree", "--verbose", "pos1"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("alpha", 0), 2);
  EXPECT_EQ(flags.GetString("name", ""), "fattree");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_EQ(flags.GetDouble("missing", 1.5), 1.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Flags, DoubleDashStopsParsing) {
  const char* argv[] = {"prog", "--", "--not-a-flag"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.Has("not-a-flag"));
  ASSERT_EQ(flags.positional().size(), 1u);
}

TEST(Flags, RejectsUnknownFlagsOnceRegistered) {
  // A typo'd flag must fail loudly instead of silently falling back to the default.
  const char* argv[] = {"prog", "--trails=50"};
  Flags flags;
  flags.Describe("trials", "trial count");
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));

  const char* ok[] = {"prog", "--trials=50", "--help", "pos"};
  Flags strict;
  strict.Describe("trials", "trial count");
  ASSERT_TRUE(strict.Parse(4, const_cast<char**>(ok)));  // --help is always known
  EXPECT_EQ(strict.GetInt("trials", 0), 50);
  EXPECT_TRUE(strict.Has("help"));
  ASSERT_EQ(strict.positional().size(), 1u);

  // Nothing registered: ad-hoc parser keeps accepting anything.
  const char* adhoc[] = {"prog", "--whatever=1"};
  Flags loose;
  ASSERT_TRUE(loose.Parse(2, const_cast<char**>(adhoc)));
  EXPECT_EQ(loose.GetInt("whatever", 0), 1);
}

TEST(Flags, HelpWinsOverValidation) {
  // Help-before-validation ordering: with --help anywhere on the line, Parse must succeed so
  // the binary prints usage and exits 0 — even when other flags are unknown (and, by the
  // standard "if (flags.Has("help")) { print; return 0; }" prologue every bench uses before
  // its own flag validation, even when required flags are absent or malformed).
  const char* argv[] = {"prog", "--bogus=3", "--help", "--also-bogus"};
  Flags flags;
  flags.Describe("trials", "trial count");
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.Has("help"));
  EXPECT_FALSE(flags.Has("bogus"));  // unknown flags are dropped, not recorded

  // --help after the "--" terminator is positional, so unknown flags fail loudly again.
  const char* late[] = {"prog", "--bogus=3", "--", "--help"};
  Flags strict;
  strict.Describe("trials", "trial count");
  EXPECT_FALSE(strict.Parse(4, const_cast<char**>(late)));
}

TEST(Table, RendersAligned) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Each row ends exactly after the last column (no trailing separator).
  EXPECT_EQ(out.find("22\n") != std::string::npos, true);
}

TEST(Table, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FmtPercent(0.983, 1), "98.3");
  EXPECT_EQ(TablePrinter::FmtInt(1234), "1234");
}

TEST(Xml, WriteParseRoundTrip) {
  XmlWriter w;
  w.Open("root");
  w.Attribute("version", static_cast<int64_t>(3));
  w.Open("child");
  w.Attribute("name", "a<b&c");
  w.Text("hello & goodbye");
  w.Close();
  w.Open("empty");
  w.Close();
  w.Close();
  const std::string xml = w.TakeString();

  auto root = ParseXml(xml);
  EXPECT_EQ(root->name, "root");
  EXPECT_EQ(root->AttrInt("version", 0), 3);
  ASSERT_EQ(root->children.size(), 2u);
  const XmlNode* child = root->Child("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->Attr("name"), "a<b&c");
  EXPECT_EQ(child->text, "hello & goodbye");
  EXPECT_NE(root->Child("empty"), nullptr);
  EXPECT_EQ(root->Child("missing"), nullptr);
}

TEST(Xml, MalformedInputThrows) {
  EXPECT_THROW(ParseXml("<a><b></a>"), std::runtime_error);
  EXPECT_THROW(ParseXml("<a attr=foo></a>"), std::runtime_error);
  EXPECT_THROW(ParseXml("no xml at all"), std::runtime_error);
}

TEST(Xml, EscapeCoversAllEntities) {
  EXPECT_EQ(XmlEscape("<>&\"'"), "&lt;&gt;&amp;&quot;&apos;");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitAll();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndices) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::ParallelFor(64, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.ElapsedSeconds(), 0.005);
  EXPECT_LT(t.ElapsedSeconds(), 5.0);
}

}  // namespace
}  // namespace detector
