#include "crypto/md5.hpp"

#include <algorithm>
#include <iterator>

#include "util/wordload.hpp"

namespace mc::crypto {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

constexpr std::uint32_t rotl(std::uint32_t x, int s) {
  return (x << s) | (x >> (32 - s));
}

// The four auxiliary functions of RFC 1321 §3.4, in their branch-free
// equivalents: F = (x & y) | (~x & z), G = (x & z) | (y & ~z).
constexpr std::uint32_t fn_f(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) {
  return z ^ (x & (y ^ z));
}
constexpr std::uint32_t fn_g(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) {
  return y ^ (z & (x ^ y));
}
constexpr std::uint32_t fn_h(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) {
  return x ^ y ^ z;
}
constexpr std::uint32_t fn_i(std::uint32_t x, std::uint32_t y,
                             std::uint32_t z) {
  return y ^ (x | ~z);
}

// One step: a = b + ((a + fn(b, c, d) + m + k) <<< s).  Every call site
// passes literal s, k and message index, so each of the 64 steps compiles
// to straight-line code with constant shifts and no round dispatch.
template <std::uint32_t (*Fn)(std::uint32_t, std::uint32_t, std::uint32_t)>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t m, std::uint32_t k, int s) {
  a = b + rotl(a + Fn(b, c, d) + m + k, s);
}

}  // namespace

void Md5::reset() {
  std::copy(std::begin(kInit), std::end(kInit), state_);
  total_bytes_ = 0;
  buffered_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = load_le32_word(block + 4 * i);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];

  // Round 1: F over message words in order.
  step<fn_f>(a, b, c, d, m[0], 0xd76aa478u, 7);
  step<fn_f>(d, a, b, c, m[1], 0xe8c7b756u, 12);
  step<fn_f>(c, d, a, b, m[2], 0x242070dbu, 17);
  step<fn_f>(b, c, d, a, m[3], 0xc1bdceeeu, 22);
  step<fn_f>(a, b, c, d, m[4], 0xf57c0fafu, 7);
  step<fn_f>(d, a, b, c, m[5], 0x4787c62au, 12);
  step<fn_f>(c, d, a, b, m[6], 0xa8304613u, 17);
  step<fn_f>(b, c, d, a, m[7], 0xfd469501u, 22);
  step<fn_f>(a, b, c, d, m[8], 0x698098d8u, 7);
  step<fn_f>(d, a, b, c, m[9], 0x8b44f7afu, 12);
  step<fn_f>(c, d, a, b, m[10], 0xffff5bb1u, 17);
  step<fn_f>(b, c, d, a, m[11], 0x895cd7beu, 22);
  step<fn_f>(a, b, c, d, m[12], 0x6b901122u, 7);
  step<fn_f>(d, a, b, c, m[13], 0xfd987193u, 12);
  step<fn_f>(c, d, a, b, m[14], 0xa679438eu, 17);
  step<fn_f>(b, c, d, a, m[15], 0x49b40821u, 22);

  // Round 2: G over message word (5i + 1) mod 16.
  step<fn_g>(a, b, c, d, m[1], 0xf61e2562u, 5);
  step<fn_g>(d, a, b, c, m[6], 0xc040b340u, 9);
  step<fn_g>(c, d, a, b, m[11], 0x265e5a51u, 14);
  step<fn_g>(b, c, d, a, m[0], 0xe9b6c7aau, 20);
  step<fn_g>(a, b, c, d, m[5], 0xd62f105du, 5);
  step<fn_g>(d, a, b, c, m[10], 0x02441453u, 9);
  step<fn_g>(c, d, a, b, m[15], 0xd8a1e681u, 14);
  step<fn_g>(b, c, d, a, m[4], 0xe7d3fbc8u, 20);
  step<fn_g>(a, b, c, d, m[9], 0x21e1cde6u, 5);
  step<fn_g>(d, a, b, c, m[14], 0xc33707d6u, 9);
  step<fn_g>(c, d, a, b, m[3], 0xf4d50d87u, 14);
  step<fn_g>(b, c, d, a, m[8], 0x455a14edu, 20);
  step<fn_g>(a, b, c, d, m[13], 0xa9e3e905u, 5);
  step<fn_g>(d, a, b, c, m[2], 0xfcefa3f8u, 9);
  step<fn_g>(c, d, a, b, m[7], 0x676f02d9u, 14);
  step<fn_g>(b, c, d, a, m[12], 0x8d2a4c8au, 20);

  // Round 3: H over message word (3i + 5) mod 16.
  step<fn_h>(a, b, c, d, m[5], 0xfffa3942u, 4);
  step<fn_h>(d, a, b, c, m[8], 0x8771f681u, 11);
  step<fn_h>(c, d, a, b, m[11], 0x6d9d6122u, 16);
  step<fn_h>(b, c, d, a, m[14], 0xfde5380cu, 23);
  step<fn_h>(a, b, c, d, m[1], 0xa4beea44u, 4);
  step<fn_h>(d, a, b, c, m[4], 0x4bdecfa9u, 11);
  step<fn_h>(c, d, a, b, m[7], 0xf6bb4b60u, 16);
  step<fn_h>(b, c, d, a, m[10], 0xbebfbc70u, 23);
  step<fn_h>(a, b, c, d, m[13], 0x289b7ec6u, 4);
  step<fn_h>(d, a, b, c, m[0], 0xeaa127fau, 11);
  step<fn_h>(c, d, a, b, m[3], 0xd4ef3085u, 16);
  step<fn_h>(b, c, d, a, m[6], 0x04881d05u, 23);
  step<fn_h>(a, b, c, d, m[9], 0xd9d4d039u, 4);
  step<fn_h>(d, a, b, c, m[12], 0xe6db99e5u, 11);
  step<fn_h>(c, d, a, b, m[15], 0x1fa27cf8u, 16);
  step<fn_h>(b, c, d, a, m[2], 0xc4ac5665u, 23);

  // Round 4: I over message word 7i mod 16.
  step<fn_i>(a, b, c, d, m[0], 0xf4292244u, 6);
  step<fn_i>(d, a, b, c, m[7], 0x432aff97u, 10);
  step<fn_i>(c, d, a, b, m[14], 0xab9423a7u, 15);
  step<fn_i>(b, c, d, a, m[5], 0xfc93a039u, 21);
  step<fn_i>(a, b, c, d, m[12], 0x655b59c3u, 6);
  step<fn_i>(d, a, b, c, m[3], 0x8f0ccc92u, 10);
  step<fn_i>(c, d, a, b, m[10], 0xffeff47du, 15);
  step<fn_i>(b, c, d, a, m[1], 0x85845dd1u, 21);
  step<fn_i>(a, b, c, d, m[8], 0x6fa87e4fu, 6);
  step<fn_i>(d, a, b, c, m[15], 0xfe2ce6e0u, 10);
  step<fn_i>(c, d, a, b, m[6], 0xa3014314u, 15);
  step<fn_i>(b, c, d, a, m[13], 0x4e0811a1u, 21);
  step<fn_i>(a, b, c, d, m[4], 0xf7537e82u, 6);
  step<fn_i>(d, a, b, c, m[11], 0xbd3af235u, 10);
  step<fn_i>(c, d, a, b, m[2], 0x2ad7d2bbu, 15);
  step<fn_i>(b, c, d, a, m[9], 0xeb86d391u, 21);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(ByteView data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;

  if (buffered_ != 0) {
    const std::size_t take = std::min<std::size_t>(64 - buffered_, data.size());
    copy_bytes(MutableByteView(buffer_).subspan(buffered_), data.first(take));
    buffered_ += take;
    offset += take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }

  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }

  if (offset < data.size()) {
    copy_bytes(MutableByteView(buffer_), data.subspan(offset));
    buffered_ = data.size() - offset;
  }
}

Digest Md5::finish() {
  const std::uint64_t bit_length = total_bytes_ * 8;

  // Pad: 0x80 then zeros until 56 mod 64, then the 64-bit LE bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update(ByteView(kPad, pad_len));

  std::uint8_t length_le[8];
  for (int i = 0; i < 8; ++i) {
    length_le[i] = static_cast<std::uint8_t>((bit_length >> (8 * i)) & 0xFF);
  }
  update(ByteView(length_le, 8));

  std::uint8_t out[kDigestBytes];
  for (int i = 0; i < 4; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] & 0xFF);
    out[4 * i + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xFF);
    out[4 * i + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xFF);
    out[4 * i + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xFF);
  }
  const Digest digest(out, kDigestBytes);
  reset();
  return digest;
}

}  // namespace mc::crypto
