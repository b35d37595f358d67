// The one JSON string escaper.  Every JSON writer in the tree (reports,
// Chrome traces, sweep JSON lines, mc_lint's SARIF, the bench JSON) embeds
// strings through it, so its output is always valid JSON whatever bytes a
// guest put into a section name.  JsonWriter builds compact documents on
// top of it.  Header-only: mc_lint includes it without linking src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace mc {

namespace detail {

/// Length of the well-formed UTF-8 sequence starting at s[i] (a byte
/// >= 0x80), or 0 when the bytes there are ill-formed (RFC 3629: no
/// overlong forms, no surrogates, nothing above U+10FFFF).
inline std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<std::uint8_t>(s[k]);
  };
  const std::uint8_t lead = byte(i);
  std::size_t len = 0;
  std::uint8_t lo = 0x80;  // bounds of the second byte
  std::uint8_t hi = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    len = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    len = 3;
    lo = lead == 0xE0 ? 0xA0 : 0x80;
    hi = lead == 0xED ? 0x9F : 0xBF;
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    len = 4;
    lo = lead == 0xF0 ? 0x90 : 0x80;
    hi = lead == 0xF4 ? 0x8F : 0xBF;
  } else {
    return 0;
  }
  if (s.size() - i < len || byte(i + 1) < lo || byte(i + 1) > hi) {
    return 0;
  }
  for (std::size_t k = 2; k < len; ++k) {
    if (byte(i + k) < 0x80 || byte(i + k) > 0xBF) {
      return 0;
    }
  }
  return len;
}

}  // namespace detail

/// Escapes `s` for embedding between double quotes in JSON: `"` and `\`
/// are escaped, `\n` `\r` `\t` take their short forms, every other byte
/// below 0x20 becomes \u00XX, well-formed UTF-8 passes through unchanged,
/// and each byte of an ill-formed sequence becomes \u00XX.
inline std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  const auto escape_byte = [&](std::uint8_t c) {
    out += "\\u00";
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  };
  for (std::size_t i = 0; i < s.size();) {
    const auto c = static_cast<std::uint8_t>(s[i]);
    if (c >= 0x80) {
      const std::size_t len = detail::utf8_sequence_length(s, i);
      if (len == 0) {
        escape_byte(c);
        ++i;
      } else {
        out.append(s.substr(i, len));
        i += len;
      }
      continue;
    }
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          escape_byte(c);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
    ++i;
  }
  return out;
}

/// Builds one compact JSON document in order.  Commas are placed for the
/// caller; keys and string values go through json_escape; a double prints
/// as "%g" does (six significant digits).  An object inside an array
/// takes no key.  The caller keeps begin/end balanced.
class JsonWriter {
 public:
  JsonWriter& begin_object(std::string_view key = {}) {
    return open(key, '{');
  }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array(std::string_view key) {
    return open(key, '[');
  }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& field(std::string_view key, std::string_view value) {
    prefix(key);
    out_ += '"';
    out_ += json_escape(value);
    out_ += '"';
    return *this;
  }
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, bool value) {
    prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& field(std::string_view key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", value);
    prefix(key);
    out_ += buf;
    return *this;
  }
  template <typename Int,
            std::enable_if_t<std::is_integral_v<Int> &&
                                 !std::is_same_v<Int, bool>,
                             int> = 0>
  JsonWriter& field(std::string_view key, Int value) {
    prefix(key);
    out_ += std::to_string(value);
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  void prefix(std::string_view key) {
    if (!first_) {
      out_ += ',';
    }
    first_ = false;
    if (!key.empty()) {
      out_ += '"';
      out_ += json_escape(key);
      out_ += "\":";
    }
  }
  JsonWriter& open(std::string_view key, char bracket) {
    prefix(key);
    out_ += bracket;
    first_ = true;
    return *this;
  }
  JsonWriter& close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }

  std::string out_;
  bool first_ = true;
};

}  // namespace mc
