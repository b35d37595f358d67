// Unit tests for mc_crypto: RFC/NIST vectors, streaming equivalence,
// digest value semantics.
#include <gtest/gtest.h>

#include <string>

#include "crypto/digest.hpp"
#include "crypto/hasher.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace {

using namespace mc;
using namespace mc::crypto;

ByteView sv(const std::string& s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

// ---- MD5: the full RFC 1321 appendix A.5 test suite -------------------------
struct Md5Vector {
  const char* input;
  const char* hex;
};

// Print a vector by its expected digest. Without this, gtest prints the raw
// bytes of the two pointers, which differ from run to run under ASLR and so
// give the discovered ctest cases a different name on every build.
void PrintTo(const Md5Vector& v, std::ostream* os) { *os << v.hex; }

class Md5Rfc1321 : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5Rfc1321, MatchesReferenceDigest) {
  const auto& [input, hex] = GetParam();
  EXPECT_EQ(Md5::hash(sv(input)).hex(), hex);
}

INSTANTIATE_TEST_SUITE_P(
    ReferenceVectors, Md5Rfc1321,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                  "56789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

// ---- SHA-1 / SHA-256: FIPS 180 vectors ----------------------------------------
TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(Sha1::hash(sv("")).hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::hash(sv("abc")).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::hash(sv("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                          "mnopnopq"))
                .hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(Sha256::hash(sv("")).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::hash(sv("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::hash(sv("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmn"
                            "omnopnopq"))
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(sv(chunk));
  }
  EXPECT_EQ(h.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Md5, MillionAs) {
  // RFC 1321 test suite's multi-block vector (15,625 full blocks).
  Md5 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(sv(chunk));
  }
  EXPECT_EQ(h.finish().hex(), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Md5, SplitAtEveryOffsetEqualsOneShot) {
  // Two separately allocated pieces (a scatter-gather view's shape), split
  // at every offset of the first three blocks: every residue mod 64 lands
  // on both the buffered and the direct block path.
  Xoshiro256 rng(24);
  Bytes data(200);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  const Digest one_shot = Md5::hash(data);
  for (std::size_t split = 0; split <= 192; ++split) {
    const Bytes head(data.begin(), data.begin() + static_cast<long>(split));
    const Bytes tail(data.begin() + static_cast<long>(split), data.end());
    Md5 h;
    h.update(head);
    h.update(tail);
    EXPECT_EQ(h.finish(), one_shot) << "split at " << split;
  }
}

// ---- streaming == one-shot across chunkings (property) --------------------------
class ChunkedHashing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedHashing, Md5StreamEqualsOneShot) {
  const std::size_t chunk = GetParam();
  Xoshiro256 rng(7);
  Bytes data(3000);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  Md5 streaming;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t take = std::min(chunk, data.size() - off);
    streaming.update(ByteView(data).subspan(off, take));
  }
  EXPECT_EQ(streaming.finish(), Md5::hash(data));
}

TEST_P(ChunkedHashing, Sha256StreamEqualsOneShot) {
  const std::size_t chunk = GetParam();
  Xoshiro256 rng(8);
  Bytes data(3000);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  Sha256 streaming;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t take = std::min(chunk, data.size() - off);
    streaming.update(ByteView(data).subspan(off, take));
  }
  EXPECT_EQ(streaming.finish(), Sha256::hash(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedHashing,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 127, 128, 513,
                                           3000));

// ---- padding boundaries (the classic 55/56/57 and 63/64/65 cases) ----------------
class PaddingBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaddingBoundary, FinishResetsAndRepeats) {
  const Bytes data(GetParam(), 0xAB);
  Md5 h;
  h.update(data);
  const Digest first = h.finish();
  // The hasher must be reusable after finish().
  h.update(data);
  EXPECT_EQ(h.finish(), first);
  EXPECT_EQ(first, Md5::hash(data));
}

INSTANTIATE_TEST_SUITE_P(Lengths, PaddingBoundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 128));

// ---- Digest value type -------------------------------------------------------------
TEST(Digest, HexRoundTrip) {
  const Digest d = Md5::hash(sv("abc"));
  EXPECT_EQ(Digest::from_hex(d.hex()), d);
}

TEST(Digest, FromHexRejectsBadInput) {
  EXPECT_THROW(Digest::from_hex("abc"), FormatError);    // odd length
  EXPECT_THROW(Digest::from_hex("zz"), FormatError);     // non-hex
  EXPECT_THROW(Digest::from_hex(std::string(70, 'a')), FormatError);  // long
}

TEST(Digest, ComparesByContentAndSize) {
  const Digest a = Md5::hash(sv("x"));
  const Digest b = Md5::hash(sv("y"));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Md5::hash(sv("x")));
  // Different algorithms produce different-size digests that never compare
  // equal.
  EXPECT_NE(Md5::hash(sv("x")), Sha256::hash(sv("x")));
}

TEST(Digest, OrderingIsStrictWeak) {
  const Digest a = Md5::hash(sv("a"));
  const Digest b = Md5::hash(sv("b"));
  EXPECT_TRUE((a < b) != (b < a) || a == b);
  EXPECT_FALSE(a < a);
}

TEST(Digest, EmptyDigest) {
  const Digest d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.hex(), "");
  EXPECT_EQ(d.size(), 0u);
}

// ---- hasher facade -----------------------------------------------------------------
TEST(Hasher, FactoryDispatchesCorrectAlgorithm) {
  EXPECT_EQ(hash_bytes(HashAlgorithm::kMd5, sv("abc")).size(), 16u);
  EXPECT_EQ(hash_bytes(HashAlgorithm::kSha1, sv("abc")).size(), 20u);
  EXPECT_EQ(hash_bytes(HashAlgorithm::kSha256, sv("abc")).size(), 32u);
  EXPECT_EQ(hash_bytes(HashAlgorithm::kMd5, sv("abc")),
            Md5::hash(sv("abc")));
}

TEST(Hasher, ParseNames) {
  EXPECT_EQ(parse_hash_algorithm("md5"), HashAlgorithm::kMd5);
  EXPECT_EQ(parse_hash_algorithm("sha1"), HashAlgorithm::kSha1);
  EXPECT_EQ(parse_hash_algorithm("sha256"), HashAlgorithm::kSha256);
  EXPECT_THROW(parse_hash_algorithm("sha512"), InvalidArgument);
  EXPECT_EQ(to_string(HashAlgorithm::kSha256), "sha256");
}

TEST(Hasher, StreamingFacade) {
  auto hasher = make_hasher(HashAlgorithm::kSha1);
  hasher->update(sv("ab"));
  hasher->update(sv("c"));
  EXPECT_EQ(hasher->finish(), Sha1::hash(sv("abc")));
}

// ---- avalanche property: single-bit flips change the digest ------------------------
TEST(Md5, SingleBitFlipChangesDigest) {
  Bytes data(256, 0x5A);
  const Digest base = Md5::hash(data);
  for (const std::size_t byte : {std::size_t{0}, std::size_t{100},
                                 std::size_t{255}}) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = data;
      mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
      EXPECT_NE(Md5::hash(mutated), base)
          << "byte " << byte << " bit " << bit;
    }
  }
}

}  // namespace
