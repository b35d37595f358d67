// Strict RFC 8259 syntax check for the JSON the tree writes, so tests can
// assert "this parses" instead of counting braces.  Written independently
// of util/json.hpp on purpose: the escaper must not vouch for itself.
// Strings may not hold raw bytes below 0x20; bytes >= 0x80 are accepted
// as-is (tests check UTF-8 well-formedness separately where it matters).
#pragma once

#include <cctype>
#include <cstddef>
#include <cstring>
#include <string_view>

namespace mc::testutil {

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}

  /// True when the whole text is exactly one JSON value (plus whitespace).
  bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) {
      return false;
    }
    switch (s_[i_]) {
      case '{':
        return composite('}', true);
      case '[':
        return composite(']', false);
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  /// An object (`keyed`: "key": value members) or an array.
  bool composite(char close, bool keyed) {
    ++i_;
    skip_ws();
    if (peek(close)) {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (keyed) {
        if (!peek('"') || !string()) {
          return false;
        }
        skip_ws();
        if (!peek(':')) {
          return false;
        }
        ++i_;
        skip_ws();
      }
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek(close)) {
        ++i_;
        return true;
      }
      if (!peek(',')) {
        return false;
      }
      ++i_;
    }
  }

  bool string() {
    ++i_;  // opening quote
    while (i_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') {
        return true;
      }
      if (c < 0x20) {
        return false;
      }
      if (c != '\\') {
        continue;
      }
      if (i_ >= s_.size()) {
        return false;
      }
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++i_) {
          if (i_ >= s_.size() ||
              std::isxdigit(static_cast<unsigned char>(s_[i_])) == 0) {
            return false;
          }
        }
      } else if (std::strchr("\"\\/bfnrt", e) == nullptr || e == '\0') {
        return false;
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = i_;
    if (peek('-')) {
      ++i_;
    }
    if (!digits()) {
      return false;
    }
    if (s_[start] == '0' || (s_[start] == '-' && s_[start + 1] == '0')) {
      if (i_ - start > (s_[start] == '-' ? 2u : 1u)) {
        return false;  // no leading zeros
      }
    }
    if (peek('.')) {
      ++i_;
      if (!digits()) {
        return false;
      }
    }
    if (peek('e') || peek('E')) {
      ++i_;
      if (peek('+') || peek('-')) {
        ++i_;
      }
      if (!digits()) {
        return false;
      }
    }
    return true;
  }

  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[i_])) != 0) {
      ++i_;
    }
    return i_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) {
      return false;
    }
    i_ += word.size();
    return true;
  }

  bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

inline bool is_valid_json(std::string_view text) {
  return JsonValidator(text).valid();
}

}  // namespace mc::testutil
