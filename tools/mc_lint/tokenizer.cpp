#include "token.hpp"

#include <cctype>

namespace mc::lint {

namespace {

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Multi-character operators, longest first within each leading char —
/// tried in order, so e.g. `<<=` wins over `<<` wins over `<`.
constexpr const char* kMultiPunct[] = {
    "...", "->*", "<<=", ">>=", "::", "->", ".*", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=",  "++",  "--",
};

}  // namespace

std::vector<Token> tokenize(const ScannedSource& src) {
  std::vector<Token> out;
  for (std::size_t li = 0; li < src.code.size(); ++li) {
    const std::string& line = src.code[li];
    // Preprocessor lines are tokenized like any other ('#' is a punct):
    // the line rules are specified over every source line, directives
    // included.
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      Token t;
      t.line = static_cast<int>(li + 1);
      t.col = static_cast<int>(i);
      if (is_ident_start(c)) {
        std::size_t end = i;
        while (end < line.size() && is_word_char(line[end])) {
          ++end;
        }
        t.kind = Tok::kIdent;
        t.text = line.substr(i, end - i);
        i = end;
      } else if (is_digit(c)) {
        // pp-number: digits, word chars, dots, and exponent signs.
        std::size_t end = i + 1;
        while (end < line.size()) {
          const char d = line[end];
          if (is_word_char(d) || d == '.') {
            ++end;
          } else if ((d == '+' || d == '-') && end > i &&
                     (line[end - 1] == 'e' || line[end - 1] == 'E' ||
                      line[end - 1] == 'p' || line[end - 1] == 'P')) {
            ++end;
          } else {
            break;
          }
        }
        t.kind = Tok::kNumber;
        t.text = line.substr(i, end - i);
        i = end;
      } else if (c == '"') {
        // The stripper blanked the contents but kept both quotes, and a
        // literal never spans sanitized lines.
        std::size_t end = line.find('"', i + 1);
        end = end == std::string::npos ? line.size() : end + 1;
        t.kind = Tok::kString;
        t.text = line.substr(i, end - i);
        i = end;
      } else if (c == '\'') {
        std::size_t end = line.find('\'', i + 1);
        end = end == std::string::npos ? line.size() : end + 1;
        t.kind = Tok::kChar;
        t.text = line.substr(i, end - i);
        i = end;
      } else {
        t.kind = Tok::kPunct;
        t.text = std::string(1, c);
        for (const char* op : kMultiPunct) {
          const std::size_t n = std::char_traits<char>::length(op);
          if (line.compare(i, n, op) == 0) {
            t.text = op;
            break;
          }
        }
        i += t.text.size();
      }
      out.push_back(std::move(t));
    }
  }
  return out;
}

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open_idx,
                          const char* open, const char* close) {
  const bool angle = close[0] == '>';
  int depth = 0;
  for (std::size_t i = open_idx; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kPunct) {
      continue;
    }
    if (t.text == open) {
      ++depth;
    } else if (t.text == close) {
      if (--depth == 0) {
        return i;
      }
    } else if (angle && t.text == ">>") {
      depth -= 2;
      if (depth <= 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

std::size_t match_backward(const std::vector<Token>& toks,
                           std::size_t close_idx, const char* open,
                           const char* close) {
  int depth = 0;
  for (std::size_t i = close_idx + 1; i-- > 0;) {
    const Token& t = toks[i];
    if (t.kind != Tok::kPunct) {
      continue;
    }
    if (t.text == close) {
      ++depth;
    } else if (t.text == open) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == Tok::kIdent && t.text == text;
}

}  // namespace mc::lint
